package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// benchmarkMetrics reads the metric names and units BENCHMARK.json at the
// repository root declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, ours)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmokeRunsMatchSchemaAndBenchmarkJSON runs every workload at smoke
// scale, untraced and traced, and checks the printed line against
// BENCHMARK.json and every record against schema.json.
func TestSmokeRunsMatchSchemaAndBenchmarkJSON(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	dir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			out := filepath.Join(dir, w.name+trace, "records.jsonl")
			var stdout, stderr bytes.Buffer
			code := run([]string{"-workload", w.name, "-seed", "3", "-seconds", "0.6", "-trace", trace, "-scale", "smoke", "-out", out}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s", w.name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if keys := sortedKeys(res); !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
				t.Fatalf("%s: result keys %v", w.name, keys)
			}
			var line result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatal(err)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			got := map[string]string{}
			for name, m := range line.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trace=%s: printed metrics %v, BENCHMARK.json has %v", w.name, trace, got, want)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Fatalf("%s trace=%s: %+v", w.name, trace, line)
			}
			if trace == "0" {
				for name, m := range line.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
					}
				}
			}
			checkRecords(t, out)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkRecords validates every record of a records file, and that the
// validator rejects the record once its host block is gone.
func checkRecords(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	n := 0
	for sc.Scan() {
		n++
		if err := validateRecord(sc.Bytes()); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if host, _ := rec["host"].(map[string]any); host["nproc"] == nil || host["go_version"] == nil {
			t.Fatalf("%s: record without a host block", path)
		}
		delete(rec, "host")
		stripped, _ := json.Marshal(rec)
		if validateRecord(stripped) == nil {
			t.Fatal("a record without a host block passed the schema")
		}
	}
	if n != 1 {
		t.Fatalf("%s: %d records, want 1", path, n)
	}
}

// TestWrongAnswerFailsTheRun corrupts one committed expected answer and
// checks that the run reports the cell and exits non-zero.
func TestWrongAnswerFailsTheRun(t *testing.T) {
	exp, err := loadExpectations("testdata/expected.json")
	if err != nil {
		t.Fatal(err)
	}
	var key string
	for k := range exp.Cells {
		if strings.HasPrefix(k, "jazz-syn@") && strings.HasSuffix(k, "/k=2/q=6") {
			key = k
		}
	}
	if key == "" {
		t.Fatal("testdata/expected.json lacks the smoke cell jazz-syn 2/6; rerun the smoke workloads with -write-expected")
	}
	exp.Cells[key].Count++
	path := filepath.Join(t.TempDir(), "expected.json")
	if err := exp.save(path); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "engine_bnb", "-seconds", "0.2", "-scale", "smoke", "-expected", path, "-out", filepath.Join(t.TempDir(), "r.jsonl")}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("run with a corrupted expected answer exited 0\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "WRONG jazz-syn 2/6") {
		t.Fatalf("the mismatching cell was not reported:\n%s", stderr.String())
	}
	if !strings.Contains(stdout.String(), `"correct":false`) {
		t.Fatalf("result line does not say correct=false:\n%s", stdout.String())
	}
}
