package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	restore "repro"
	"repro/internal/dfs"
	"repro/internal/exp"
	"repro/internal/pigmix"
	"repro/internal/service"
)

// warmClients is warm-mix's closed-loop client count (the machine's
// nproc); each client holds one session and one HTTP connection.
const warmClients = 2

// warmSkew is the Zipf skew of warm-mix's query popularity.
const warmSkew = 1.1

// fillCap bounds the steady-state warm-up.
const fillCap = 60 * time.Second

// clientScript points a query's STORE at a per-client path, so
// concurrent clients never overwrite each other's output. Matching
// ignores the final STORE path, so reuse is unaffected.
func clientScript(q pigmix.Query, client string) (script, out string) {
	out = "out/" + client + "/" + q.Name
	return strings.Replace(q.Script, "'"+q.Output+"'", "'"+out+"'", 1), out
}

// runWarm is warm-mix: the PigMix 15GB instance, which fits the batch
// cache, with a repository warmed by one pass over the 15 queries and
// then run to steady state. Two closed-loop clients draw from a
// Zipf(1.1) mix over the 15 queries through the HTTP service, so every
// sub-job is answered from the repository and only each query's small
// final job runs.
func runWarm(e *env) (*outcome, error) {
	sc := pigmix.Scale15GB
	cfg := restore.DefaultConfig()
	cfg.Options = reuseOptions()
	o := &outcome{}
	var sys *restore.System
	var ref map[string]digest
	var warmResults []*restore.Result
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		fs := dfs.New()
		if _, err := pigmix.Generate(fs, sc, e.seed); err != nil {
			return nil, fmt.Errorf("generate: %w", err)
		}
		r, err := reference(fs, sc, pigmixSuite)
		if err != nil {
			return nil, err
		}
		s, err := restore.Recover(cfg, fs)
		if err != nil {
			return nil, err
		}
		s.SetScales(pigmix.SimScaleFor(fs, sc), pigmix.RecordScaleFor(sc))
		var results []*restore.Result
		for _, name := range pigmixSuite {
			q, err := pigmix.Get(name)
			if err != nil {
				return nil, err
			}
			script, _ := clientScript(q, "warm")
			_, res, err := runQuery(e, s, name, script, false)
			if err != nil {
				return nil, fmt.Errorf("warm pass %s: %w", name, err)
			}
			results = append(results, res)
		}
		o.setups = append(o.setups, time.Since(start))
		e.rec.other(&span{Name: "setup", Layer: "bench", Start: start.UnixNano(), End: time.Now().UnixNano()})
		if sys != nil {
			sys.Close()
		}
		sys, ref, warmResults = s, r, results
	}
	defer sys.Close()
	fs := sys.FS()
	for i, name := range pigmixSuite {
		q, _ := pigmix.Get(name)
		_, out := clientScript(q, "warm")
		if got, err := resultDigest(fs, warmResults[i], out); err != nil || got.rounded != ref[name].rounded {
			return nil, fmt.Errorf("warm pass %s: output differs from the reuse-off reference (%v)", name, err)
		}
	}
	inputs, err := hashDatasets(fs, "pigmix")
	if err != nil {
		return nil, err
	}
	o.inputs = inputs
	inputBytes := float64(fs.Size("pigmix"))
	recScale := pigmix.RecordScaleFor(sc)
	jobs, err := jobCounts(e, sys, pigmixSuite)
	if err != nil {
		return nil, err
	}
	if err := fill(e, sys, o, recScale); err != nil {
		return nil, err
	}

	srv := service.NewServer(sys, service.Config{DefaultOptions: reuseOptions()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	runtime.GC() // start the window without the set-up's garbage
	before := snapshot(sys)
	heap := watchHeap()
	start, cpu := time.Now(), cpuTime()
	deadline := start.Add(e.seconds)
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for c := 0; c < warmClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			recs, err := warmClient(e, base, c, deadline, ref, jobs)
			mu.Lock()
			defer mu.Unlock()
			o.queries = append(o.queries, recs...)
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}(c)
	}
	wg.Wait()
	o.elapsed = time.Since(start)
	o.cpu = cpuTime() - cpu
	o.heapPeak = heap.Stop()
	o.counters.addDelta(before, snapshot(sys))
	o.repo = append(o.repo, float64(sys.StorageStats().UsageBytes)/inputBytes)
	// A closed loop has no rounds of its own: a warm-mix round is the
	// wall time the clients take to complete one pass's worth of queries.
	o.rounds = []time.Duration{o.elapsed * time.Duration(len(pigmixSuite)) / time.Duration(max(len(o.queries), 1))}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return nil, err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return nil, err
	}
	if err := srv.Close(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if e.traced {
		if o.decodeMBs, err = decodeRate(e, fs, "pigmix"); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// fill runs the Zipf mix in-process with warmClients goroutines until
// the batch cache reaches steady state: it has started evicting, or its
// resident bytes stopped growing. Staged query outputs stay resident,
// so the cache grows for thousands of queries before it first evicts;
// timing before that point would measure a drifting system. The
// in-process queries also give warm-mix its engine throughput (the
// HTTP API does not return job statistics).
func fill(e *env, sys *restore.System, o *outcome, recScale float64) error {
	start := time.Now()
	evicted0 := sys.BatchCacheStats().Evictions
	var stop atomic.Bool
	var mu sync.Mutex
	var n int
	var firstErr error
	var wg sync.WaitGroup
	for c := 0; c < warmClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mix, _ := exp.NewZipfMix(pigmixSuite, warmSkew, e.seed*7919+int64(c))
			client := fmt.Sprintf("c%d", c)
			for !stop.Load() {
				q, _ := pigmix.Get(mix.Pick())
				script, _ := clientScript(q, client)
				rec, _, err := runQuery(e, sys, q.Name, script, false)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("warm-up %s: %w", q.Name, err)
					stop.Store(true)
				}
				n++
				o.engineWork(rec, recScale)
				mu.Unlock()
			}
		}(c)
	}
	// Steady: the cache evicted, or resident bytes grew by less than
	// 1 MiB over the last two seconds.
	var resident []int64
	why := "cache reached its budget and evicts"
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		<-tick.C
		st := sys.BatchCacheStats()
		resident = append(resident, st.UsedBytes)
		if st.Evictions > evicted0 {
			break
		}
		if k := len(resident); k > 8 && resident[k-1]-resident[k-9] < 1<<20 {
			why = "cache resident bytes stopped growing"
			break
		}
		if time.Since(start) > fillCap {
			why = fmt.Sprintf("not steady after %v", fillCap)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	st := sys.BatchCacheStats()
	o.notes = append(o.notes, fmt.Sprintf("steady-state warm-up: %d queries in %.1f s (%s; %.1f MB resident, %d evictions)",
		n, time.Since(start).Seconds(), why, float64(st.UsedBytes)/(1<<20), st.Evictions-evicted0))
	return firstErr
}

// warmClient is one closed-loop HTTP client: it opens a session, then
// submits Zipf-drawn queries one at a time until the deadline, waiting
// for each result and checking each output against the reference.
func warmClient(e *env, base string, c int, deadline time.Time, ref map[string]digest, jobs map[string]int) ([]queryRecord, error) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	client := fmt.Sprintf("c%d", c)
	var sess struct {
		ID string `json:"id"`
	}
	if err := call(hc, http.MethodPost, base+"/sessions", map[string]string{"tenant": client}, &sess); err != nil {
		return nil, err
	}
	mix, err := exp.NewZipfMix(pigmixSuite, warmSkew, e.seed*31+int64(c))
	if err != nil {
		return nil, err
	}
	checked := map[string]checkedBody{}
	var recs []queryRecord
	for i := 0; time.Now().Before(deadline); i++ {
		q, _ := pigmix.Get(mix.Pick())
		script, out := clientScript(q, client)
		traced := e.traced && i%2 == 1
		rec, err := httpQuery(e, hc, base, sess.ID, q.Name, script, out, ref[q.Name], checked, traced)
		if err != nil {
			return recs, err
		}
		rec.jobsTotal = jobs[q.Name]
		recs = append(recs, rec)
	}
	return recs, nil
}

// checkedBody remembers the outcome of checking one exact /output body,
// so a client re-checks a repeated answer by its SHA-256 alone.
type checkedBody struct {
	sum       [sha256.Size]byte
	ok, exact bool
}

// httpQuery runs one query through the service: POST /queries, then GET
// /queries/{id}/result, which blocks until it finishes. Its output is
// then fetched and checked, and in a traced run its trace fetched and
// folded.
func httpQuery(e *env, hc *http.Client, base, session, name, script, out string, want digest, checked map[string]checkedBody, traced bool) (queryRecord, error) {
	rec := queryRecord{name: name, traced: traced}
	start := time.Now()
	var sub struct {
		ID string `json:"id"`
	}
	if err := call(hc, http.MethodPost, base+"/queries", map[string]string{"session": session, "script": script}, &sub); err != nil {
		return rec, err
	}
	posted := time.Now()
	var info service.QueryInfo
	if err := call(hc, http.MethodGet, base+"/queries/"+sub.ID+"/result", nil, &info); err != nil {
		return rec, err
	}
	end := time.Now()
	rec.latency = end.Sub(start)
	if info.State != service.StateDone || info.Result == nil {
		rec.failed = true
		rec.iter = time.Since(start)
		return rec, nil
	}
	rec.sim = time.Duration(info.Result.SimTimeMs * float64(time.Millisecond))
	rec.jobsRun, rec.jobsReused, rec.rewrites = info.Result.JobsRun, info.Result.JobsReused, len(info.Result.Rewrites)

	body, err := fetch(hc, base+"/queries/"+sub.ID+"/output?path="+url.QueryEscape(out))
	if err != nil {
		return rec, err
	}
	sum := sha256.Sum256(body)
	if prev, ok := checked[name]; ok && prev.sum == sum {
		rec.ok, rec.exact = prev.ok, prev.exact
	} else {
		var lines []string
		for _, l := range strings.Split(string(body), "\n") {
			if l != "" {
				lines = append(lines, l)
			}
		}
		rec.check(digestLines(lines), want)
		checked[name] = checkedBody{sum: sum, ok: rec.ok, exact: rec.exact}
	}

	if traced {
		fetched := time.Now()
		var tr restore.TraceSnapshot
		if err := call(hc, http.MethodGet, base+"/queries/"+sub.ID+"/trace", nil, &tr); err != nil {
			return rec, err
		}
		rec.snapshot = time.Since(fetched)
		root := &span{Name: "query", Layer: "bench", Start: start.UnixNano(), End: end.UnixNano(), Kids: []*span{
			{Name: "POST /queries", Layer: "service", Start: start.UnixNano(), End: posted.UnixNano()},
			{Name: "GET /queries/{id}/result", Layer: "service", Start: posted.UnixNano(), End: end.UnixNano()},
		}}
		rec.fold(e, sub.ID, root, &tr)
	}
	rec.iter = time.Since(start)
	return rec, nil
}

// call sends an optional JSON body and decodes a JSON reply.
func call(hc *http.Client, method, u string, body, reply any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: %s: %s", method, u, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, reply)
}

// fetch GETs u and returns the body.
func fetch(hc *http.Client, u string) ([]byte, error) {
	resp, err := hc.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", u, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}
