package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/kplex"
	"repro/internal/obs"
)

// workerState is one registered worker. The URL is immutable; the mutable
// scheduling fields (busy, fails, nextTry) are guarded by the
// coordinator's mutex.
type workerState struct {
	url     string
	addedAt time.Time

	busy       bool
	fails      int       // consecutive failures, reset on success
	nextTry    time.Time // backoff gate after failures
	rangesDone int64
	lastOK     time.Time
}

// workerBackoff is how long a worker sits out after its n-th consecutive
// failure: linear up to a cap, so a flapping worker stops monopolising
// leases but a recovered one rejoins within seconds.
func workerBackoff(fails int) time.Duration {
	d := time.Duration(fails) * 500 * time.Millisecond
	if max := 5 * time.Second; d > max {
		d = max
	}
	return d
}

// callRange posts one leased range to a worker and consumes its NDJSON
// response: progress lines invoke onSeeds (monotonic count of range seeds
// the worker finished, used to feed the lease watchdog), and the final
// Done line yields the range's aggregate plus the worker's trace spans
// (when traceparent is non-empty, it is sent as the Traceparent header so
// the worker records its share of the coordinator's trace). Any transport
// error, in-band error line, or stream that ends without a Done line
// fails the lease.
func callRange(ctx context.Context, hc *http.Client, workerURL string, req *RangeRequest, traceparent string, onSeeds func(int)) (*kplex.Aggregate, []obs.SpanData, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, strings.TrimRight(workerURL, "/")+"/cluster/run", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		hreq.Header.Set(obs.TraceparentHeader, traceparent)
	}
	resp, err := hc.Do(hreq)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return nil, nil, fmt.Errorf("cluster: worker %s refused range [%d, %d): %s: %s", workerURL, req.Lo, req.Hi, resp.Status, strings.TrimSpace(string(msg)))
	}

	sc := bufio.NewScanner(resp.Body)
	// The final line carries the sealed aggregate, whose top-k list can be
	// arbitrarily wide; give the scanner room well past any practical plex.
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rl RangeLine
		if err := json.Unmarshal(line, &rl); err != nil {
			return nil, nil, fmt.Errorf("cluster: worker %s sent an unparseable range line: %w", workerURL, err)
		}
		if rl.Error != "" {
			return nil, nil, fmt.Errorf("cluster: worker %s failed range [%d, %d): %s", workerURL, req.Lo, req.Hi, rl.Error)
		}
		if rl.Done {
			if rl.Agg == nil {
				return nil, nil, fmt.Errorf("cluster: worker %s completed range [%d, %d) without an aggregate", workerURL, req.Lo, req.Hi)
			}
			if err := rl.Agg.Unseal(); err != nil {
				return nil, nil, fmt.Errorf("cluster: worker %s: %w", workerURL, err)
			}
			return rl.Agg, rl.Spans, nil
		}
		if onSeeds != nil {
			onSeeds(rl.SeedsDone)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("cluster: worker %s stream broke mid-range: %w", workerURL, err)
	}
	return nil, nil, fmt.Errorf("cluster: worker %s closed the stream before completing range [%d, %d)", workerURL, req.Lo, req.Hi)
}
