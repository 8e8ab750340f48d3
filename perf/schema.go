package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// validate checks doc against the subset of JSON Schema that schema.json
// uses: type, enum, minimum, pattern, required, properties,
// additionalProperties and items. Other keywords are annotations.
func validate(schema map[string]any, doc any, path string) error {
	if t, ok := schema["type"].(string); ok && !hasType(doc, t) {
		return fmt.Errorf("%s: want %s, got %T", path, t, doc)
	}
	if enum, ok := schema["enum"].([]any); ok {
		found := false
		for _, e := range enum {
			found = found || e == doc
		}
		if !found {
			return fmt.Errorf("%s: %v is not one of %v", path, doc, enum)
		}
	}
	if lo, ok := schema["minimum"].(float64); ok {
		if n, isNum := doc.(float64); isNum && n < lo {
			return fmt.Errorf("%s: %v is below %v", path, n, lo)
		}
	}
	if pat, ok := schema["pattern"].(string); ok {
		if s, isStr := doc.(string); isStr && !regexp.MustCompile(pat).MatchString(s) {
			return fmt.Errorf("%s: %q does not match %s", path, s, pat)
		}
	}
	if items, ok := schema["items"].(map[string]any); ok {
		if arr, isArr := doc.([]any); isArr {
			for i, v := range arr {
				if err := validate(items, v, fmt.Sprintf("%s[%d]", path, i)); err != nil {
					return err
				}
			}
		}
	}
	obj, isObj := doc.(map[string]any)
	if !isObj {
		return nil
	}
	if req, ok := schema["required"].([]any); ok {
		for _, r := range req {
			if _, present := obj[r.(string)]; !present {
				return fmt.Errorf("%s: missing %q", path, r)
			}
		}
	}
	props, _ := schema["properties"].(map[string]any)
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sub, known := props[k].(map[string]any)
		if !known {
			switch extra := schema["additionalProperties"].(type) {
			case bool:
				if !extra {
					return fmt.Errorf("%s: unexpected property %q", path, k)
				}
				continue
			case map[string]any:
				sub = extra
			default:
				continue
			}
		}
		if err := validate(sub, obj[k], path+"."+k); err != nil {
			return err
		}
	}
	return nil
}

func hasType(v any, t string) bool {
	switch t {
	case "object":
		_, ok := v.(map[string]any)
		return ok
	case "array":
		_, ok := v.([]any)
		return ok
	case "string":
		_, ok := v.(string)
		return ok
	case "boolean":
		_, ok := v.(bool)
		return ok
	case "number":
		_, ok := v.(float64)
		return ok
	case "integer":
		n, ok := v.(float64)
		return ok && n == math.Trunc(n)
	}
	return false
}
