package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"

	restore "repro"
	"repro/internal/obs"
)

// The layers time is charged to, named after the repository's modules.
// bench is the benchmark's own client loop between its calls into the
// program: time no layer's span covers.
var layers = []string{"service", "compile", "core", "mapreduce", "dfs", "tuple", "obs", "bench"}

// span is one timed interval in wall-clock nanoseconds, charged to a
// layer. The benchmark records its own spans around each call it makes
// into the program; the program's own span tree (Query.Trace, or GET
// /queries/{id}/trace) is folded in beside them.
type span struct {
	Name  string  `json:"name"`
	Layer string  `json:"layer"`
	Start int64   `json:"startNs"`
	End   int64   `json:"endNs"`
	Kids  []*span `json:"kids,omitempty"`
}

// queryTrace is one traced query: the benchmark's spans (a root around
// the whole client-observed query, with its calls as children) and the
// program's span tree, sharing the program's query ID.
type queryTrace struct {
	ID      string  `json:"id"`
	Query   string  `json:"query"`
	Bench   *span   `json:"bench"`
	Program []*span `json:"program"`
}

// programLayer charges a program span kind (see internal/obs) to a
// layer. Engine executions, including a refresh's delta and merge jobs,
// are mapreduce; a STORE commit is a DFS rename; everything else on the
// decision path (submit, job, probe, reuse, claims, refresh control) is
// core.
func programLayer(kind string) string {
	switch kind {
	case obs.KindCompile:
		return "compile"
	case obs.KindJobExec, obs.KindTask, obs.KindRefreshDelta, obs.KindRefreshMerge:
		return "mapreduce"
	case obs.KindStoreCommit:
		return "dfs"
	}
	return "core"
}

// programSpans converts a program trace to spans in wall-clock
// nanoseconds.
func programSpans(tr *restore.TraceSnapshot) []*span {
	if tr == nil {
		return nil
	}
	base := tr.Start.UnixNano()
	var conv func(s *restore.TraceSpan) *span
	conv = func(s *restore.TraceSpan) *span {
		start := base + int64(s.StartMs*1e6)
		out := &span{Name: s.Kind, Layer: programLayer(s.Kind), Start: start, End: start + int64(s.WallMs*1e6)}
		for _, c := range s.Children {
			out.Kids = append(out.Kids, conv(c))
		}
		return out
	}
	out := make([]*span, 0, len(tr.Spans))
	for _, s := range tr.Spans {
		out = append(out, conv(s))
	}
	return out
}

// selfTimes charges every instant of the bench root's interval to
// exactly one place, so the returned per-layer times sum to the root's
// duration. An instant goes to the innermost open spans: a span's self
// time is its duration minus what its open children cover. Program
// spans nest inside whichever benchmark span is open at that instant
// (they run inside the benchmark's call), so while any program span is
// open the instant is charged to the innermost program spans only.
// When several innermost spans are open at once — sibling jobs of one
// workflow running in parallel — they share the instant equally.
func selfTimes(t *queryTrace) map[string]float64 {
	type node struct {
		s       *span
		kids    []int
		program bool
	}
	var nodes []node
	var add func(s *span, program bool) int
	add = func(s *span, program bool) int {
		i := len(nodes)
		nodes = append(nodes, node{s: s, program: program})
		for _, k := range s.Kids {
			j := add(k, program)
			nodes[i].kids = append(nodes[i].kids, j)
		}
		return i
	}
	add(t.Bench, false)
	for _, p := range t.Program {
		add(p, true)
	}

	lo, hi := t.Bench.Start, t.Bench.End
	cuts := []int64{lo, hi}
	for _, n := range nodes {
		for _, c := range []int64{n.s.Start, n.s.End} {
			if c > lo && c < hi {
				cuts = append(cuts, c)
			}
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })

	out := map[string]float64{}
	active := make([]bool, len(nodes))
	var leaves []int
	for c := 0; c+1 < len(cuts); c++ {
		a, b := cuts[c], cuts[c+1]
		if b == a {
			continue
		}
		anyProgram := false
		for i, n := range nodes {
			active[i] = n.s.Start <= a && n.s.End >= b
			anyProgram = anyProgram || (active[i] && n.program)
		}
		leaves = leaves[:0]
		for i, n := range nodes {
			if !active[i] || n.program != anyProgram {
				continue
			}
			leaf := true
			for _, k := range n.kids {
				if active[k] {
					leaf = false
					break
				}
			}
			if leaf {
				leaves = append(leaves, i)
			}
		}
		share := float64(b-a) / float64(len(leaves))
		for _, i := range leaves {
			out[nodes[i].s.Layer] += share
		}
	}
	return out
}

// recorder keeps every traced query in memory until the run ends,
// together with the set-up and round spans outside any query. A nil
// recorder records nothing: untraced runs pay no recording cost.
type recorder struct {
	mu      sync.Mutex
	Queries []*queryTrace `json:"queries"`
	Other   []*span       `json:"other"`
}

func (r *recorder) query(t *queryTrace) {
	if r != nil {
		r.mu.Lock()
		r.Queries = append(r.Queries, t)
		r.mu.Unlock()
	}
}

func (r *recorder) other(s *span) {
	if r != nil {
		r.mu.Lock()
		r.Other = append(r.Other, s)
		r.mu.Unlock()
	}
}

// write stores the recorded spans as one JSON document.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
