package main

import (
	"fmt"
	"runtime"
	"time"

	restore "repro"
	"repro/internal/dfs"
	"repro/internal/pigmix"
)

// append-durable settings. An epoch is a fresh flow log of
// appendBaseDays days with a warmed durable System over it; each of its
// roundsPerEpoch rounds appends a day and runs the four net-traffic
// queries. Restarting the log every few rounds keeps every round's
// input size in the same range, so rounds are comparable, and bounds
// the distinct grown logs a run must check against to roundsPerEpoch.
const (
	appendBaseDays = 1
	roundsPerEpoch = 8
)

// appendRows is the flow count of one daily partition (about 1 MB).
// Smaller days make each query mostly fixed per-job overhead — goroutine
// hand-offs whose wall time swings with the host's CPU steal — and the
// workload's latency unrepeatable from run to run.
const appendRows = 24_000

// appendScales maps the flow log to simulated scale: each daily
// partition stands for ~2 GB, as the PigMix instances stand for the
// paper's 15 GB.
func appendScales(fs dfs.Backend) (sim, record float64) {
	return float64(int64(appendBaseDays)*(2<<30)) / float64(fs.Size(pigmix.PathNetTraffic)),
		pigmix.RecordScaleFor(pigmix.Scale15GB)
}

// epoch is one durable System over a fresh flow log.
type epoch struct {
	fs   *dfs.FS
	sys  *restore.System
	jobs map[string]int
}

// openEpoch seeds the flow log, opens the durable System over it —
// Config.Durability enabled, so every repository mutation is journaled
// to the DFS and compacted — and warms the repository with one pass of
// N1–N4. The log lives on the in-memory backend: on the disk backend,
// file creation latency on a shared virtual disk varies several-fold
// within seconds, which no bound could absorb (see README.md).
func openEpoch(e *env) (*epoch, []*restore.Result, error) {
	ep := &epoch{fs: dfs.New()}
	if err := pigmix.GenerateNetTraffic(ep.fs, appendBaseDays, appendRows, e.seed); err != nil {
		return nil, nil, err
	}
	cfg := restore.DefaultConfig()
	cfg.Options = reuseOptions()
	cfg.Durability = restore.DurabilityConfig{Enabled: true}
	start := time.Now()
	var err error
	if ep.sys, err = restore.Recover(cfg, ep.fs); err != nil {
		return nil, nil, err
	}
	e.rec.other(&span{Name: "restore.Recover", Layer: "core", Start: start.UnixNano(), End: time.Now().UnixNano()})
	ep.sys.SetScales(appendScales(ep.fs))
	if ep.jobs, err = jobCounts(e, ep.sys, pigmix.NetTrafficSuite); err != nil {
		ep.sys.Close()
		return nil, nil, err
	}
	var warm []*restore.Result
	for _, name := range pigmix.NetTrafficSuite {
		q, _ := pigmix.Get(name)
		_, res, err := runQuery(e, ep.sys, name, q.Script, false)
		if err != nil {
			ep.sys.Close()
			return nil, nil, fmt.Errorf("warm pass %s: %w", name, err)
		}
		warm = append(warm, res)
	}
	return ep, warm, nil
}

// grownRef is the reuse-off reference for one state of the flow log:
// the log's content hash and N1–N4's output digests over it.
type grownRef struct {
	log  string
	want map[string]digest
}

// referenceRun grows a mirror of the flow log day by day and runs
// N1–N4 over it with reuse off.
type referenceRun struct {
	mirror *dfs.FS
	sys    *restore.System
}

func newReferenceRun(e *env) (*referenceRun, error) {
	r := &referenceRun{mirror: dfs.New()}
	if err := pigmix.GenerateNetTraffic(r.mirror, appendBaseDays, appendRows, e.seed); err != nil {
		return nil, err
	}
	var err error
	if r.sys, err = restore.Recover(restore.DefaultConfig(), r.mirror); err != nil {
		return nil, err
	}
	r.sys.SetScales(appendScales(r.mirror))
	return r, nil
}

// current returns the reference for the mirror's current state.
func (r *referenceRun) current() (grownRef, error) {
	hashes, err := hashDatasets(r.mirror, pigmix.PathNetTraffic)
	if err != nil {
		return grownRef{}, err
	}
	g := grownRef{log: hashes[pigmix.PathNetTraffic], want: map[string]digest{}}
	for _, name := range pigmix.NetTrafficSuite {
		q, _ := pigmix.Get(name)
		res, err := r.sys.Execute(q.Script)
		if err != nil {
			return grownRef{}, fmt.Errorf("reference %s: %w", name, err)
		}
		if g.want[name], err = resultDigest(r.mirror, res, q.Output); err != nil {
			return grownRef{}, err
		}
	}
	return g, nil
}

// verify checks that the epoch's log is the reference's log and each
// result matches the reference.
func (ep *epoch) verify(ref grownRef, results []*restore.Result, recs []queryRecord) error {
	hashes, err := hashDatasets(ep.fs, pigmix.PathNetTraffic)
	if err != nil {
		return err
	}
	if hashes[pigmix.PathNetTraffic] != ref.log {
		return fmt.Errorf("flow log grew differently from the reference's")
	}
	for i, name := range pigmix.NetTrafficSuite {
		if results[i] == nil {
			continue
		}
		q, _ := pigmix.Get(name)
		if got, err := resultDigest(ep.fs, results[i], q.Output); err == nil {
			recs[i].check(got, ref.want[name])
		}
	}
	return nil
}

// runAppend is append-durable: the net-traffic flow log under the
// durable repository. Each round appends one day
// (pigmix.AppendNetTrafficDay, the same seeded growth on every commit)
// and runs N1–N4 with one client, so every query delta-refreshes a
// stored aggregate: appends bump versions, invalidate cached batches,
// and drive classify/delta/merge, journal appends and compaction.
//
// Set-up is the base log, the warm pass and the base log's reference.
// The references for the roundsPerEpoch grown logs — one per round, each a
// reuse-off recompute over the grown log — are computed once per run
// before the window, so no round waits for one.
func runAppend(e *env) (*outcome, error) {
	o := &outcome{}
	var ep *epoch
	var warm []*restore.Result
	var refs []grownRef
	var rr *referenceRun
	for i := 0; i < setupReps; i++ {
		if ep != nil {
			ep.sys.Close()
			rr.sys.Close()
		}
		start := time.Now()
		var err error
		if ep, warm, err = openEpoch(e); err != nil {
			return nil, err
		}
		if rr, err = newReferenceRun(e); err != nil {
			return nil, err
		}
		base, err := rr.current()
		if err != nil {
			return nil, err
		}
		refs = []grownRef{base}
		o.setups = append(o.setups, time.Since(start))
		e.rec.other(&span{Name: "setup", Layer: "bench", Start: start.UnixNano(), End: time.Now().UnixNano()})
	}
	for r := 0; r < roundsPerEpoch; r++ {
		if _, err := pigmix.AppendNetTrafficDay(rr.mirror, appendRows, e.seed); err != nil {
			return nil, err
		}
		g, err := rr.current()
		if err != nil {
			return nil, err
		}
		refs = append(refs, g)
	}
	rr.sys.Close()
	if err := ep.verify(refs[0], warm, make([]queryRecord, len(warm))); err != nil {
		return nil, err
	}
	inputs, err := hashDatasets(ep.fs, pigmix.PathNetTraffic)
	if err != nil {
		return nil, err
	}
	o.inputs = inputs

	// The window is the rounds' own time: opening an epoch (generating
	// and warming a fresh log) is set-up, not measured.
	recScale := pigmix.RecordScaleFor(pigmix.Scale15GB)
	runtime.GC()
	heap := watchHeap()
	for k := 0; ; k++ {
		// A traced run alternates untraced and traced epochs.
		traced := e.traced && k%2 == 1
		for r := 0; r < roundsPerEpoch && o.elapsed < e.seconds; r++ {
			if err := appendRound(e, ep, o, refs[r+1], traced, recScale); err != nil {
				ep.sys.Close()
				return nil, err
			}
		}
		o.repo = append(o.repo, float64(ep.sys.StorageStats().UsageBytes)/float64(ep.fs.Size(pigmix.PathNetTraffic)))
		ep.sys.Close()
		if o.elapsed >= e.seconds {
			break
		}
		if ep, _, err = openEpoch(e); err != nil {
			return nil, err
		}
		runtime.GC() // no epoch pays for the previous one's garbage
	}
	o.heapPeak = heap.Stop()
	o.notes = append(o.notes, fmt.Sprintf("rounds: %d over epochs of %d base day + %d appended days of %d flows (durable repository, in-memory backend)",
		len(o.rounds), appendBaseDays, roundsPerEpoch, appendRows))
	if e.traced {
		if o.decodeMBs, err = decodeRate(e, ep.fs, pigmix.PathNetTraffic); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// appendRound appends one day and runs N1–N4; the checks run after the
// round's clock stops.
func appendRound(e *env, ep *epoch, o *outcome, ref grownRef, traced bool, recScale float64) error {
	before := snapshot(ep.sys)
	start, cpu := time.Now(), cpuTime()
	if _, err := pigmix.AppendNetTrafficDay(ep.fs, appendRows, e.seed); err != nil {
		return err
	}
	appended := time.Now()
	results := make([]*restore.Result, len(pigmix.NetTrafficSuite))
	recs := make([]queryRecord, len(pigmix.NetTrafficSuite))
	for i, name := range pigmix.NetTrafficSuite {
		q, _ := pigmix.Get(name)
		var err error
		recs[i], results[i], err = runQuery(e, ep.sys, name, q.Script, traced)
		recs[i].failed = err != nil
		recs[i].jobsTotal = ep.jobs[name]
	}
	round := time.Since(start)
	o.rounds = append(o.rounds, round)
	o.elapsed += round
	o.cpu += cpuTime() - cpu
	o.counters.addDelta(before, snapshot(ep.sys))
	if traced {
		o.appendMs = append(o.appendMs, ms(appended.Sub(start)))
		e.rec.other(&span{Name: "pigmix.AppendNetTrafficDay", Layer: "dfs", Start: start.UnixNano(), End: appended.UnixNano()})
	}
	if err := ep.verify(ref, results, recs); err != nil {
		return err
	}
	for _, r := range recs {
		o.engineWork(r, recScale)
	}
	o.queries = append(o.queries, recs...)
	return nil
}
