// Command kplexjob is the client for kplexd's durable background jobs: it
// submits long-running enumerations, watches their checkpointed progress,
// and fetches results — against a running kplexd, or fully in-process with
// -local (no server needed; useful for scripted batch runs, and because
// the jobs directory is durable, an interrupted local run resumes from its
// last checkpoint when reinvoked).
//
// With -cluster the same commands drive a coordinator kplexd's
// distributed jobs (/cluster/jobs, the same API as /jobs) instead: submit
// fans the enumeration out across the coordinator's registered workers,
// wait follows range-level progress, and result fetches the merged
// aggregate — which is byte-identical to what a single-node run of the
// same query returns.
//
// Usage:
//
//	kplexjob [-addr URL [-cluster] | -local -jobs DIR [-data DIR]] <command> [flags]
//
// Commands:
//
//	submit  -graph G -k K -q Q [-topn N] [-threads T] [-scheduler S] [-priority P] [-ranges R] [-wait]
//	list
//	status  <id>
//	wait    <id>
//	result  <id>
//	cancel  <id>
//	delete  <id>
//	trace   <trace-id>   fetch one finished trace from the server's ring
//	                     (a job manifest's traceId field names it)
//
// Examples:
//
//	kplexjob -addr http://localhost:8080 submit -graph corpus:planted-a -k 2 -q 6 -wait
//	kplexjob -local -jobs ./jobs -data ./graphs submit -graph web.txt -k 2 -q 12
//	kplexjob -cluster submit -graph corpus:planted-a -k 2 -q 6 -ranges 8 -wait
//	kplexjob wait j4f2a81c09d1b
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "kplexjob:", err)
		os.Exit(1)
	}
}

// backend abstracts "talk to kplexd" (its /jobs or /cluster/jobs API) vs
// "run the manager in-process". wait reports the terminal state plus the
// job's own error text.
type backend interface {
	submit(spec jobs.Spec) (*jobs.Manifest, error)
	list() ([]jobs.View, error)
	status(id string) (*jobs.View, error)
	wait(id string) (jobs.State, string, error)
	result(id string) (*jobs.Result, error)
	cancel(id string) error
	remove(id string) error
	close()
}

func run() error {
	var (
		addr    = flag.String("addr", "http://localhost:8080", "kplexd base URL")
		local   = flag.Bool("local", false, "run the job manager in-process instead of talking to a kplexd")
		jobsDir = flag.String("jobs", "kplex-jobs", "jobs directory (-local only)")
		dataDir = flag.String("data", "", "graph data directory (-local only; empty: corpus graphs only)")
		workers = flag.Int("workers", 1, "concurrent jobs (-local only)")
		clust   = flag.Bool("cluster", false, "drive the coordinator's distributed jobs (/cluster/jobs) instead of single-node jobs")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: kplexjob [-addr URL [-cluster] | -local -jobs DIR [-data DIR]] <submit|list|status|wait|result|cancel|delete|trace> [flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		return errors.New("missing command")
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]

	if *clust && *local {
		return errors.New("-cluster needs a running coordinator kplexd; it cannot combine with -local")
	}

	var b backend
	if *local {
		m, err := jobs.Open(jobs.Config{
			Dir:     *jobsDir,
			Workers: *workers,
			Load:    localLoader(*dataDir),
			Logf: func(format string, a ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", a...)
			},
		})
		if err != nil {
			return err
		}
		b = &localBackend{m: m}
	} else if *clust {
		b = &httpBackend{base: strings.TrimRight(*addr, "/"), jobs: "/cluster/jobs"}
	} else {
		b = &httpBackend{base: strings.TrimRight(*addr, "/"), jobs: "/jobs"}
	}
	defer b.close()

	switch cmd {
	case "submit":
		return cmdSubmit(b, *local, args)
	case "list":
		views, err := b.list()
		if err != nil {
			return err
		}
		return printJSON(views)
	case "status":
		id, err := oneID(args)
		if err != nil {
			return err
		}
		v, err := b.status(id)
		if err != nil {
			return err
		}
		return printJSON(v)
	case "wait":
		id, err := oneID(args)
		if err != nil {
			return err
		}
		return waitAndReport(b, id)
	case "result":
		id, err := oneID(args)
		if err != nil {
			return err
		}
		res, err := b.result(id)
		if err != nil {
			return err
		}
		return printJSON(res)
	case "cancel":
		id, err := oneID(args)
		if err != nil {
			return err
		}
		if err := b.cancel(id); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "cancelled", id)
		return nil
	case "delete":
		id, err := oneID(args)
		if err != nil {
			return err
		}
		if err := b.remove(id); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "deleted", id)
		return nil
	case "trace":
		if len(args) != 1 {
			return errors.New("expected exactly one trace id")
		}
		if *local {
			return errors.New("trace requires a running kplexd (-addr): traces live in the server's ring")
		}
		// Jobs and distributed jobs pin their trace id in the manifest
		// (traceId); interactive queries return theirs in X-Trace-Id.
		h := &httpBackend{base: strings.TrimRight(*addr, "/")}
		var td json.RawMessage
		if err := h.do(http.MethodGet, "/debug/traces/"+args[0], nil, &td); err != nil {
			return err
		}
		var v any
		if err := json.Unmarshal(td, &v); err != nil {
			return err
		}
		return printJSON(v)
	default:
		flag.Usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func oneID(args []string) (string, error) {
	if len(args) != 1 {
		return "", errors.New("expected exactly one job id")
	}
	return args[0], nil
}

func printJSON(v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

func cmdSubmit(b backend, local bool, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	var spec jobs.Spec
	fs.StringVar(&spec.Graph, "graph", "", "graph name (server path or corpus:<name>)")
	fs.IntVar(&spec.K, "k", 0, "k-plex parameter")
	fs.IntVar(&spec.Q, "q", 0, "minimum plex size")
	fs.IntVar(&spec.TopN, "topn", 0, "largest plexes kept (default 10)")
	fs.IntVar(&spec.Threads, "threads", 0, "engine threads (0: server default)")
	fs.StringVar(&spec.Scheduler, "scheduler", "", "stages | steal")
	fs.IntVar(&spec.Priority, "priority", 0, "higher runs first")
	items := fs.String("items", "", `batch job: comma-separated "k:q[:topn]" cells (leave -k/-q/-topn unset); cells with equal k share one traversal`)
	fs.IntVar(&spec.Ranges, "ranges", 0, "seed ranges the job is split into (-cluster only; default: coordinator's ranges-per-worker × workers)")
	wait := fs.Bool("wait", false, "watch progress and print the result")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *items != "" {
		var err error
		if spec.Items, err = parseItems(*items); err != nil {
			return err
		}
	}
	man, err := b.submit(spec)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "submitted", man.ID)
	// A local manager dies with this process, so submitting without
	// waiting would leave the job queued forever; always wait.
	if !*wait && !local {
		return printJSON(man)
	}
	return waitAndReport(b, man.ID)
}

// parseItems decodes the -items flag: comma-separated "k:q" or "k:q:topn"
// cells.
func parseItems(s string) ([]jobs.SpecItem, error) {
	var items []jobs.SpecItem
	for _, cell := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(cell), ":")
		if len(parts) != 2 && len(parts) != 3 {
			return nil, fmt.Errorf("bad item %q: want k:q or k:q:topn", cell)
		}
		var it jobs.SpecItem
		var err error
		if it.K, err = strconv.Atoi(parts[0]); err != nil {
			return nil, fmt.Errorf("bad item %q: %v", cell, err)
		}
		if it.Q, err = strconv.Atoi(parts[1]); err != nil {
			return nil, fmt.Errorf("bad item %q: %v", cell, err)
		}
		if len(parts) == 3 {
			if it.TopN, err = strconv.Atoi(parts[2]); err != nil {
				return nil, fmt.Errorf("bad item %q: %v", cell, err)
			}
		}
		items = append(items, it)
	}
	return items, nil
}

func waitAndReport(b backend, id string) error {
	state, errText, err := b.wait(id)
	if err != nil {
		return err
	}
	if state != jobs.StateDone {
		return fmt.Errorf("job %s ended %s: %s", id, state, errText)
	}
	res, err := b.result(id)
	if err != nil {
		return err
	}
	return printJSON(res)
}

// localLoader resolves graph names the same way kplexd does ("corpus:*"
// builtins, otherwise files under dataDir, *.kpg served mmap-backed) and
// stamps the content digest the checkpoint identity check needs — read
// from the store header when the graph is store-backed, never rehashed.
func localLoader(dataDir string) jobs.GraphLoader {
	load := server.NewLoader(dataDir, nil)
	return func(name string) (graph.CSR, string, func(), error) {
		g, err := load(name)
		if err != nil {
			return nil, "", nil, err
		}
		return g, graph.DigestHexOf(g), func() {}, nil
	}
}

// localBackend drives an in-process manager.
type localBackend struct{ m *jobs.Manager }

func (l *localBackend) submit(spec jobs.Spec) (*jobs.Manifest, error) { return l.m.Submit(spec) }
func (l *localBackend) list() ([]jobs.View, error)                    { return l.m.List(), nil }
func (l *localBackend) status(id string) (*jobs.View, error)          { return l.m.Get(id) }
func (l *localBackend) result(id string) (*jobs.Result, error)        { return l.m.Result(id) }
func (l *localBackend) cancel(id string) error                        { return l.m.Cancel(id) }
func (l *localBackend) remove(id string) error {
	if err := l.m.Cancel(id); err == nil {
		return nil
	} else if !errors.Is(err, jobs.ErrNotActive) {
		return err
	}
	return l.m.Delete(id)
}
func (l *localBackend) close() { l.m.Close() }

func (l *localBackend) wait(id string) (jobs.State, string, error) {
	ch, stop, err := l.m.Subscribe(id)
	if err != nil {
		return "", "", err
	}
	defer stop()
	for p := range ch {
		reportProgress(p)
	}
	v, err := l.m.Get(id)
	if err != nil {
		return "", "", err
	}
	return v.State, v.Error, nil
}

// httpBackend talks to a running kplexd's job API under the jobs path.
type httpBackend struct{ base, jobs string }

func (h *httpBackend) close() {}

// do runs one request and decodes the JSON answer (or the error body).
func (h *httpBackend) do(method, path string, body io.Reader, out any) error {
	req, err := http.NewRequest(method, h.base+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 400 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("%s %s: %s", method, path, e.Error)
		}
		return fmt.Errorf("%s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func (h *httpBackend) submit(spec jobs.Spec) (*jobs.Manifest, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var man jobs.Manifest
	if err := h.do(http.MethodPost, h.jobs, strings.NewReader(string(body)), &man); err != nil {
		return nil, err
	}
	return &man, nil
}

func (h *httpBackend) list() ([]jobs.View, error) {
	var views []jobs.View
	return views, h.do(http.MethodGet, h.jobs, nil, &views)
}

func (h *httpBackend) status(id string) (*jobs.View, error) {
	var v jobs.View
	if err := h.do(http.MethodGet, h.jobs+"/"+id, nil, &v); err != nil {
		return nil, err
	}
	return &v, nil
}

func (h *httpBackend) result(id string) (*jobs.Result, error) {
	var res jobs.Result
	if err := h.do(http.MethodGet, h.jobs+"/"+id+"/result", nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

func (h *httpBackend) cancel(id string) error {
	// The dedicated endpoint refuses terminal jobs; DELETE would purge
	// them (and their results) instead.
	return h.do(http.MethodPost, h.jobs+"/"+id+"/cancel", nil, nil)
}

func (h *httpBackend) remove(id string) error {
	// DELETE cancels active jobs; a second DELETE purges the terminal one.
	return h.do(http.MethodDelete, h.jobs+"/"+id, nil, nil)
}

// wait follows the NDJSON events feed; if the feed drops (a kplexd
// restart parks running jobs and resumes them on reopen), it re-attaches
// until the job is terminal.
func (h *httpBackend) wait(id string) (jobs.State, string, error) {
	for {
		resp, err := http.Get(h.base + h.jobs + "/" + id + "/events")
		if err != nil {
			return "", "", err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			// 404 etc.: let the status fetch produce the error.
			v, err := h.status(id)
			if err != nil {
				return "", "", err
			}
			return v.State, v.Error, nil
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || line == "{}" {
				continue
			}
			var p jobs.Progress
			if json.Unmarshal([]byte(line), &p) == nil {
				reportProgress(p)
			}
		}
		resp.Body.Close()
		v, err := h.status(id)
		if err != nil {
			return "", "", err
		}
		if v.State.Terminal() {
			return v.State, v.Error, nil
		}
		// Feed ended but the job is still live (server restarting and
		// resuming it); re-attach after a beat.
		time.Sleep(time.Second)
	}
}

func reportProgress(p jobs.Progress) {
	extra := ""
	if p.RangesTotal > 0 {
		extra = fmt.Sprintf("  ranges %d/%d  leased %d", p.RangesDone, p.RangesTotal, p.Leased)
		if p.Reassigned > 0 {
			extra += fmt.Sprintf("  reassigned %d", p.Reassigned)
		}
		if p.Stolen > 0 {
			extra += fmt.Sprintf("  stolen %d", p.Stolen)
		}
	} else {
		extra = fmt.Sprintf("  checkpoints %d", p.Checkpoints)
	}
	if p.ETAMS > 0 {
		extra += fmt.Sprintf(" eta=%s", (time.Duration(p.ETAMS) * time.Millisecond).Round(time.Second))
	}
	fmt.Fprintf(os.Stderr, "%-12s seeds %d/%d  plexes %d%s\n",
		p.State, p.SeedsDone, p.TotalSeeds, p.Plexes, extra)
}
