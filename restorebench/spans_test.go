package main

import (
	"math"
	"testing"
	"time"

	restore "repro"
)

func sp(name, layer string, start, end int64, kids ...*span) *span {
	return &span{Name: name, Layer: layer, Start: start, End: end, Kids: kids}
}

func checkSelf(t *testing.T, got, want map[string]float64, total float64) {
	t.Helper()
	sum := 0.0
	for l, v := range got {
		sum += v
		if math.Abs(v-want[l]) > 1e-9 {
			t.Errorf("layer %s: self %g, want %g", l, v, want[l])
		}
	}
	for l, v := range want {
		if _, ok := got[l]; !ok && v != 0 {
			t.Errorf("layer %s: missing, want %g", l, v)
		}
	}
	if math.Abs(sum-total) > 1e-9 {
		t.Errorf("self times sum to %g, want the root's %g", sum, total)
	}
}

// A span's self time is its duration minus what its children cover.
func TestSelfTimesSubtractsChildren(t *testing.T) {
	root := sp("query", "bench", 0, 100,
		sp("a", "a", 10, 40, sp("c", "c", 20, 30)),
		sp("b", "b", 50, 90))
	got := selfTimes(&queryTrace{Bench: root})
	checkSelf(t, got, map[string]float64{"bench": 30, "a": 20, "c": 10, "b": 40}, 100)
}

// Program spans nest inside the benchmark span open at the same
// instant, and parallel siblings share the instants they overlap.
func TestSelfTimesProgramSpansAndParallelJobs(t *testing.T) {
	root := sp("query", "bench", 0, 100, sp("Query.Wait", "core", 0, 100))
	prog := sp("submit", "core", 10, 90,
		sp("job.exec", "mapreduce", 20, 60),
		sp("job.exec", "mapreduce", 40, 80))
	got := selfTimes(&queryTrace{Bench: root, Program: []*span{prog}})
	// Wait's own share is [0,10] and [90,100]; submit's is [10,20] and
	// [80,90]; the two jobs split [40,60].
	checkSelf(t, got, map[string]float64{"core": 40, "mapreduce": 60}, 100)
}

// Program time outside the client's query span is not charged.
func TestSelfTimesClipsToRoot(t *testing.T) {
	root := sp("query", "bench", 0, 100, sp("GET result", "service", 0, 100))
	prog := sp("submit", "core", -50, 60, sp("compile", "compile", -40, 10))
	got := selfTimes(&queryTrace{Bench: root, Program: []*span{prog}})
	checkSelf(t, got, map[string]float64{"compile": 10, "core": 50, "service": 40}, 100)
}

func TestProgramSpansAbsoluteTimes(t *testing.T) {
	start := time.Unix(100, 0)
	tr := &restore.TraceSnapshot{Start: start, Spans: []*restore.TraceSpan{{
		Kind: "submit", StartMs: 0, WallMs: 10,
		Children: []*restore.TraceSpan{{Kind: "job.exec", StartMs: 2, WallMs: 5}},
	}}}
	got := programSpans(tr)
	if len(got) != 1 || len(got[0].Kids) != 1 {
		t.Fatalf("programSpans: got %d roots", len(got))
	}
	exec := got[0].Kids[0]
	if exec.Layer != "mapreduce" || exec.Start != start.UnixNano()+2e6 || exec.End != start.UnixNano()+7e6 {
		t.Errorf("job.exec span = %+v", exec)
	}
	if programLayer("compile") != "compile" || programLayer("store.commit") != "dfs" || programLayer("probe") != "core" {
		t.Error("programLayer maps kinds to the wrong layers")
	}
}
