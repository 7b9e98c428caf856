package mapreduce

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/dfs"
	"repro/internal/logical"
	"repro/internal/mrcompile"
	"repro/internal/physical"
	"repro/internal/piglatin"
	"repro/internal/tuple"
)

// putDataset inserts a synthetic single-file dataset of mem bytes.
func putDataset(c *BatchCache, fs *dfs.FS, path string, rows int) {
	var data []byte
	for i := 0; i < rows; i++ {
		data = append(data, []byte(fmt.Sprintf("%d\tval\n", i))...)
	}
	if err := fs.WriteFile(path+"/part-00000", data); err != nil {
		panic(err)
	}
	b, err := tuple.DecodeTextBatch(data)
	if err != nil {
		panic(err)
	}
	c.Put(&cachedDataset{
		path:    path,
		version: fs.Version(path),
		files:   []string{path + "/part-00000"},
		batches: []*tuple.Batch{b},
		mem:     b.MemBytes(),
		src:     b.SrcBytes(),
	})
}

func TestBatchCacheHitMissInvalidate(t *testing.T) {
	fs := dfs.New()
	c := NewBatchCache(1 << 20)
	if c.Get(fs, "a") != nil {
		t.Fatal("empty cache hit")
	}
	putDataset(c, fs, "a", 10)
	if c.Get(fs, "a") == nil {
		t.Fatal("fresh entry missed")
	}
	// Any write under the dataset bumps its version and must drop it.
	if err := fs.WriteFile("a/part-00001", []byte("9\tnine\n")); err != nil {
		t.Fatal(err)
	}
	if c.Get(fs, "a") != nil {
		t.Fatal("stale entry served after version bump")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Invalidations != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Entries != 0 || st.UsedBytes != 0 {
		t.Fatalf("invalidated entry still accounted: %+v", st)
	}
}

func TestBatchCacheLRUEviction(t *testing.T) {
	fs := dfs.New()
	c := NewBatchCache(1) // any insert overflows; only the newest survives
	putDataset(c, fs, "d0", 50)
	putDataset(c, fs, "d1", 50)
	st := c.Stats()
	if st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if c.Get(fs, "d1") == nil {
		t.Fatal("newest entry evicted instead of coldest")
	}
	if c.Get(fs, "d0") != nil {
		t.Fatal("coldest entry survived over budget")
	}
}

func TestBatchCacheLRURecency(t *testing.T) {
	fs := dfs.New()
	// Budget fits two of the three datasets.
	probe := NewBatchCache(1 << 30)
	putDataset(probe, fs, "size-probe", 50)
	one := probe.Stats().UsedBytes
	c := NewBatchCache(2 * one)
	putDataset(c, fs, "d0", 50)
	putDataset(c, fs, "d1", 50)
	if c.Get(fs, "d0") == nil { // refresh d0's recency
		t.Fatal("d0 missing")
	}
	putDataset(c, fs, "d2", 50) // evicts d1, the least recently used
	if c.Get(fs, "d1") != nil {
		t.Fatal("LRU victim survived")
	}
	if c.Get(fs, "d0") == nil || c.Get(fs, "d2") == nil {
		t.Fatal("recently used entries evicted")
	}
}

// compileScript builds the workflow's jobs for engine-level cache tests.
func compileScript(t *testing.T, src string) []*physical.Job {
	t.Helper()
	script, err := piglatin.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := logical.Build(script)
	if err != nil {
		t.Fatal(err)
	}
	wf, err := mrcompile.Compile(lp, mrcompile.Options{TempPrefix: "tmp/bc", DefaultReducers: 3})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := wf.TopoJobs()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func seedInput(t *testing.T, fs *dfs.FS, path string, n, gen int) {
	t.Helper()
	var data []byte
	for i := 0; i < n; i++ {
		data = append(data, []byte(fmt.Sprintf("user%d\t%d\n", i%7, i+gen))...)
	}
	if err := fs.WriteFile(path+"/part-00000", data); err != nil {
		t.Fatal(err)
	}
}

const cacheScript = `
A = load 'in' as (user, amount);
B = group A by user;
C = foreach B generate group, COUNT(A);
store C into 'out';
`

// TestEngineCacheWarmRunsIdentical runs one job cold then warm and
// checks the warm run hits the cache and writes byte-identical output
// with identical simulated time.
func TestEngineCacheWarmRunsIdentical(t *testing.T) {
	fs := dfs.New()
	seedInput(t, fs, "in", 200, 0)
	eng := New(fs, DefaultConfig())
	jobs := compileScript(t, cacheScript)
	if len(jobs) != 1 {
		t.Fatalf("want 1 job, got %d", len(jobs))
	}

	run := func() (*JobStats, map[string][]byte) {
		st, err := eng.Run(jobs[0])
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		for _, f := range fs.List("out") {
			data, err := fs.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			files[f] = data
		}
		return st, files
	}

	cold, coldOut := run()
	cs := eng.CacheStats()
	if cs.Hits != 0 || cs.Misses == 0 || cs.Inserts == 0 {
		t.Fatalf("cold stats = %+v", cs)
	}

	warm, warmOut := run()
	ws := eng.CacheStats()
	if ws.Hits == 0 {
		t.Fatalf("warm run missed the cache: %+v", ws)
	}
	if cold.SimTime != warm.SimTime {
		t.Fatalf("SimTime diverged: cold %v, warm %v", cold.SimTime, warm.SimTime)
	}
	if len(coldOut) != len(warmOut) {
		t.Fatalf("output file sets diverged: %d vs %d", len(coldOut), len(warmOut))
	}
	for f, want := range coldOut {
		if got, ok := warmOut[f]; !ok || string(got) != string(want) {
			t.Fatalf("output %s diverged", f)
		}
	}
}

// TestEngineCacheReadThrough checks the cache fills only on reads: a
// job's own output is not inserted when written, the first job that
// loads it misses and decodes it, and the next load hits.
func TestEngineCacheReadThrough(t *testing.T) {
	fs := dfs.New()
	seedInput(t, fs, "in", 100, 0)
	eng := New(fs, DefaultConfig())
	first := compileScript(t, cacheScript)
	if _, err := eng.Run(first[0]); err != nil {
		t.Fatal(err)
	}
	if st := eng.CacheStats(); st.Entries != 1 || st.Inserts != 1 {
		t.Fatalf("writing 'out' should cache only the job's input: %+v", st)
	}

	second := compileScript(t, `
X = load 'out' as (user, cnt);
Y = filter X by cnt > 1;
store Y into 'out2';
`)
	before := eng.CacheStats()
	if _, err := eng.Run(second[0]); err != nil {
		t.Fatal(err)
	}
	miss := eng.CacheStats()
	if miss.Misses != before.Misses+1 || miss.Hits != before.Hits || miss.Inserts != before.Inserts+1 {
		t.Fatalf("first read of a just-written dataset should miss and fill: before %+v after %+v", before, miss)
	}
	if _, err := eng.Run(second[0]); err != nil {
		t.Fatal(err)
	}
	if hit := eng.CacheStats(); hit.Hits != miss.Hits+1 || hit.Misses != miss.Misses {
		t.Fatalf("second read should hit: before %+v after %+v", miss, hit)
	}
}

// TestEngineCacheDisabledRun checks RunOptions.DisableBatchCache leaves
// no trace in the cache and still produces identical bytes.
func TestEngineCacheDisabledRun(t *testing.T) {
	fs := dfs.New()
	seedInput(t, fs, "in", 150, 0)
	eng := New(fs, DefaultConfig())
	jobs := compileScript(t, cacheScript)
	if _, err := eng.RunContextOpts(context.Background(), jobs[0], RunOptions{DisableBatchCache: true}); err != nil {
		t.Fatal(err)
	}
	if st := eng.CacheStats(); st.Hits+st.Misses+st.Inserts != 0 {
		t.Fatalf("disabled run touched the cache: %+v", st)
	}

	// A negative budget disables the cache engine-wide.
	off := New(fs, Config{MaxCachedBatchBytes: -1})
	if _, err := off.Run(jobs[0]); err != nil {
		t.Fatal(err)
	}
	if st := off.CacheStats(); st != (BatchCacheStats{}) {
		t.Fatalf("negative budget should zero stats: %+v", st)
	}
}

// TestBatchCacheConcurrentChurn races engine runs against input
// rewrites and direct cache traffic. Run under
// -race it is the cache's concurrency proof; the invariant checked is
// that a final quiescent run still produces the fresh-decode output.
func TestBatchCacheConcurrentChurn(t *testing.T) {
	fs := dfs.New()
	for d := 0; d < 3; d++ {
		seedInput(t, fs, fmt.Sprintf("churn%d", d), 60, 0)
	}
	eng := New(fs, Config{MaxCachedBatchBytes: 1 << 16}) // small budget: force evictions
	scripts := make([][]*physical.Job, 3)
	for d := 0; d < 3; d++ {
		scripts[d] = compileScript(t, fmt.Sprintf(`
A = load 'churn%d' as (user, amount);
B = group A by user;
C = foreach B generate group, COUNT(A);
store C into 'churnout%d';
`, d, d))
	}

	errc := make(chan error, 64)
	var wg sync.WaitGroup
	// Readers: repeated engine runs over the three datasets.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if _, err := eng.Run(scripts[(w+i)%3][0]); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	// Writer: rewrites dataset files, bumping versions mid-flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 10; i++ {
			var data []byte
			for r := 0; r < 60; r++ {
				data = append(data, []byte(fmt.Sprintf("user%d\t%d\n", r%7, r+i))...)
			}
			if err := fs.WriteFile(fmt.Sprintf("churn%d/part-00000", i%3), data); err != nil {
				errc <- err
				return
			}
		}
	}()
	// Stats reader and direct cache churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = eng.CacheStats()
			_ = eng.cache.Get(fs, fmt.Sprintf("churn%d", i%3))
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Quiescent: a fresh cacheless engine and the churned one must agree.
	want := New(fs, Config{MaxCachedBatchBytes: -1})
	for d := 0; d < 3; d++ {
		if _, err := eng.Run(scripts[d][0]); err != nil {
			t.Fatal(err)
		}
		churned := map[string]string{}
		for _, f := range fs.List(fmt.Sprintf("churnout%d", d)) {
			data, _ := fs.ReadFile(f)
			churned[f] = string(data)
		}
		if _, err := want.Run(scripts[d][0]); err != nil {
			t.Fatal(err)
		}
		for _, f := range fs.List(fmt.Sprintf("churnout%d", d)) {
			data, _ := fs.ReadFile(f)
			if churned[f] != string(data) {
				t.Fatalf("dataset %d: churned output diverges from fresh decode at %s", d, f)
			}
		}
	}
}

// clearedFS reports every path as existing, so the engine's output
// clearing meets a path a concurrent run already deleted.
type clearedFS struct{ dfs.Backend }

func (clearedFS) Exists(string) bool { return true }

// TestRunToleratesConcurrentlyClearedOutput is the output-clearing race
// TestBatchCacheConcurrentChurn hit: two runs of one job both see the
// output exist, one deletes it, and the other's delete must not fail
// the job.
func TestRunToleratesConcurrentlyClearedOutput(t *testing.T) {
	fs := dfs.New()
	seedInput(t, fs, "in", 20, 0)
	eng := New(clearedFS{fs}, DefaultConfig())
	if _, err := eng.Run(compileScript(t, cacheScript)[0]); err != nil {
		t.Fatalf("run over an already-cleared output: %v", err)
	}
	if len(fs.List("out")) == 0 {
		t.Fatal("job wrote no output")
	}
}
