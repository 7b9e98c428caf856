// Package engineflags declares the engine flags restore-cli and
// restore-server share — PigMix scale, reuse policy, repository budget
// and eviction, durability, DFS backend — and turns them into an open
// DFS, a restore.Config and the default per-query Options.
package engineflags

import (
	"errors"
	"flag"
	"fmt"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/pigmix"
)

// Defaults are the flag defaults that differ between the binaries.
type Defaults struct {
	Reuse     bool
	Heuristic string
	Scale     string
}

// Flags holds the registered engine flags until Open reads them.
type Flags struct {
	scale, heuristic, evict, nsRoot *string
	durablePath, backend, dataDir   *string
	reuse, wholeJobs, durable       *bool
	workers, maxJobs, compact       *int
	budgetMB, batchMB               *int64
	window, janitor, leaseTTL       *time.Duration
}

// Register declares the engine flags on fs.
func Register(fs *flag.FlagSet, d Defaults) *Flags {
	return &Flags{
		scale:       fs.String("scale", d.Scale, "PigMix instance: tiny, 15GB or 150GB"),
		reuse:       fs.Bool("reuse", d.Reuse, "enable plan matching and rewriting"),
		heuristic:   fs.String("heuristic", d.Heuristic, "sub-job heuristic: off, conservative, aggressive, no-heuristic"),
		wholeJobs:   fs.Bool("whole-jobs", true, "store whole job outputs in the repository"),
		workers:     fs.Int("workers", 0, "concurrent jobs per workflow DAG (0 = NumCPU, 1 = serial)"),
		maxJobs:     fs.Int("max-cluster-jobs", 0, "global cap on jobs running across all queries (0 = unlimited)"),
		budgetMB:    fs.Int64("max-repo-mb", 0, "repository storage budget in MB (0 = unbounded)"),
		batchMB:     fs.Int64("batch-cache-mb", 0, "decoded-dataset batch cache budget in MB (0 = default 256, negative = off)"),
		evict:       fs.String("evict", "cost-benefit", "eviction policy under the budget: reuse-window, lru, cost-benefit"),
		window:      fs.Duration("evict-window", time.Hour, "idle window of the reuse-window policy (simulated time)"),
		janitor:     fs.Duration("janitor", 0, "background storage-janitor sweep interval (0 = off)"),
		nsRoot:      fs.String("ns-root", "", "root of ReStore's managed namespaces (default: top-level tmp/ and restore/)"),
		durable:     fs.Bool("durable", false, "journal the repository to a manifest + event log on the DFS (crash-safe, multi-process)"),
		durablePath: fs.String("durable-path", "", "DFS directory of the manifest and event log (default <ns-root>/repo)"),
		compact:     fs.Int("compact-every", 0, "records between automatic log compactions (0 = default 64, negative = never)"),
		leaseTTL:    fs.Duration("lease-ttl", 0, "cross-process claim lease TTL (0 = default 1m)"),
		backend:     fs.String("backend", "memory", "DFS backend: memory (volatile) or disk (persistent, needs -data-dir)"),
		dataDir:     fs.String("data-dir", "", "directory of the disk backend's datasets and record log"),
	}
}

// Engine is what the flags describe, with its DFS backend open.
type Engine struct {
	Config  restore.Config
	Options restore.Options // default per-query reuse policy
	Workers int
	Scale   pigmix.Scale
	Backend string
	FS      dfs.Backend
	close   func() error
}

// Open validates the parsed flags and opens the DFS backend.
func (f *Flags) Open() (*Engine, error) {
	heur, err := core.ParseHeuristic(*f.heuristic)
	if err != nil {
		return nil, err
	}
	var scale pigmix.Scale
	switch strings.ToLower(*f.scale) {
	case "tiny":
		scale = pigmix.TinyScale
	case "15gb":
		scale = pigmix.Scale15GB
	case "150gb":
		scale = pigmix.Scale150GB
	default:
		return nil, fmt.Errorf("unknown scale %q (want tiny, 15GB or 150GB)", *f.scale)
	}
	policy, ok := core.ParseEvictionPolicy(*f.evict, *f.window)
	if !ok {
		return nil, fmt.Errorf("unknown eviction policy %q (want reuse-window, lru or cost-benefit)", *f.evict)
	}

	cfg := restore.DefaultConfig()
	cfg.MaxClusterJobs = *f.maxJobs
	cfg.MaxRepositoryBytes = *f.budgetMB << 20
	cfg.MaxCachedBatchBytes = *f.batchMB << 20
	if *f.batchMB < 0 {
		cfg.MaxCachedBatchBytes = -1
	}
	cfg.Eviction = policy
	cfg.JanitorInterval = *f.janitor
	cfg.NamespaceRoot = *f.nsRoot
	cfg.Durability = restore.DurabilityConfig{
		Enabled:      *f.durable,
		Path:         *f.durablePath,
		CompactEvery: *f.compact,
		LeaseTTL:     *f.leaseTTL,
	}
	e := &Engine{
		Config:  cfg,
		Options: restore.Options{Reuse: *f.reuse, Heuristic: heur, KeepWholeJobs: *f.wholeJobs},
		Workers: *f.workers,
		Scale:   scale,
		Backend: *f.backend,
		close:   func() error { return nil },
	}
	switch *f.backend {
	case "memory":
		e.FS = dfs.New()
	case "disk":
		if *f.dataDir == "" {
			return nil, errors.New("-backend=disk needs -data-dir")
		}
		disk, err := dfs.OpenDisk(*f.dataDir)
		if err != nil {
			return nil, err
		}
		e.FS, e.close = disk, disk.Close
	default:
		return nil, fmt.Errorf("unknown backend %q (want memory or disk)", *f.backend)
	}
	return e, nil
}

// System recovers a System over the engine's DFS and makes sure the
// PigMix instance is there. A backend that already holds one — a
// recovered disk directory — keeps it: regenerating would bump the
// input datasets' versions and invalidate every repository entry
// derived from them. logf reports which of the two happened.
func (e *Engine) System(logf func(format string, args ...any)) (*restore.System, error) {
	sys, err := restore.Recover(e.Config, e.FS)
	if err != nil {
		return nil, err
	}
	if e.FS.Size(pigmix.PathPageViews) > 0 {
		logf("reusing PigMix instance found on the %s backend", e.Backend)
	} else {
		logf("generating PigMix %s instance…", e.Scale.Name)
		if _, err := pigmix.Generate(e.FS, e.Scale, 1); err != nil {
			sys.Close()
			return nil, err
		}
	}
	sys.SetScales(pigmix.SimScaleFor(e.FS, e.Scale), pigmix.RecordScaleFor(e.Scale))
	return sys, nil
}

// Close closes the DFS backend.
func (e *Engine) Close() error { return e.close() }
