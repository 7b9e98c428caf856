package dfs

import (
	"io"
	"testing"
)

// forEachBackend runs fn against every Backend implementation, so
// semantic contracts are asserted once and enforced on both.
func forEachBackend(t *testing.T, fn func(t *testing.T, fs Backend)) {
	t.Run("memory", func(t *testing.T) { fn(t, New()) })
	t.Run("disk", func(t *testing.T) {
		d, err := OpenDisk(t.TempDir())
		if err != nil {
			t.Fatalf("OpenDisk: %v", err)
		}
		t.Cleanup(func() { d.Close() })
		fn(t, d)
	})
}

// TestRenameBumpsNestedDatasetVersions is the regression for the
// nested-dataset rename bug: Rename bumped only the destination's own
// dataset, so datasets nested under a renamed tree kept their old
// versions — a reader caching a version before the move, and any
// clobbered destination dataset, saw "unchanged" over replaced
// content. Every moved and clobbered dataset must bump inside the
// rename.
func TestRenameBumpsNestedDatasetVersions(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs Backend) {
		if err := fs.WriteFile("stage/j/op2/part-00000", []byte("new2")); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile("stage/j/op3/part-00000", []byte("new3")); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile("final/j/op2/part-00000", []byte("old2")); err != nil {
			t.Fatal(err)
		}
		vClobbered := fs.Version("final/j/op2")
		vFresh := fs.Version("final/j/op3") // never written: 0
		vMoved := fs.Version("stage/j/op2")

		if _, err := fs.Rename("stage/j", "final/j"); err != nil {
			t.Fatalf("Rename: %v", err)
		}
		if got, _ := fs.ReadFile("final/j/op2/part-00000"); string(got) != "new2" {
			t.Fatalf("clobbered nested dataset content = %q, want new2", got)
		}
		if v := fs.Version("final/j/op2"); v <= vClobbered {
			t.Errorf("clobbered nested dataset version %d did not bump past %d", v, vClobbered)
		}
		if v := fs.Version("final/j/op3"); v <= vFresh {
			t.Errorf("moved-in nested dataset version %d did not bump past %d", v, vFresh)
		}
		// The vacated source datasets bump too (delete-bumps-version
		// tombstone): a reader holding the pre-move version must lose a
		// CAS against the emptied dataset.
		if v := fs.Version("stage/j/op2"); v <= vMoved {
			t.Errorf("vacated source dataset version %d did not bump past %d", v, vMoved)
		}
		if fs.Exists("stage/j") {
			t.Error("source tree survived the rename")
		}
	})
}

// TestWriteFileIfFaultInjection is the regression for SetWriteFault
// bypassing the CAS path: WriteFileIf committed whole writes even
// while the fault hook was tearing or dropping every plain write. A
// dropped CAS write must leave nothing (version unchanged); a torn one
// commits the prefix and bumps the version but reports failure, like a
// writer that died mid-commit.
func TestWriteFileIfFaultInjection(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs Backend) {
		v0 := fs.Version("cas/f")

		// Dropped: nothing hit storage, the version is unchanged.
		fs.SetWriteFault(func(path string, data []byte) ([]byte, error) {
			return nil, io.ErrClosedPipe
		})
		if v, ok := fs.WriteFileIf("cas/f", []byte("one"), v0); ok || v != v0 {
			t.Fatalf("dropped CAS write: (v=%d ok=%v), want (%d, false)", v, ok, v0)
		}
		if fs.Exists("cas/f") {
			t.Fatal("dropped CAS write left content behind")
		}

		// Torn: the prefix commits and consumes the version slot, but the
		// writer is told it failed.
		fs.SetWriteFault(func(path string, data []byte) ([]byte, error) {
			return data[:2], io.ErrShortWrite
		})
		v1, ok := fs.WriteFileIf("cas/f", []byte("payload"), v0)
		if ok {
			t.Fatal("torn CAS write reported success")
		}
		if v1 == v0 {
			t.Fatal("torn CAS write did not consume the version slot")
		}
		if got, _ := fs.ReadFile("cas/f"); string(got) != "pa" {
			t.Fatalf("torn CAS committed %q, want the 2-byte prefix", got)
		}
		fs.SetWriteFault(nil)

		// The slot is consumed: the stale expectation loses, the torn
		// version wins.
		if _, ok := fs.WriteFileIf("cas/f", []byte("stale"), v0); ok {
			t.Fatal("CAS against the pre-tear version succeeded")
		}
		if _, ok := fs.WriteFileIf("cas/f", []byte("fresh"), v1); !ok {
			t.Fatal("CAS against the torn version failed")
		}
		if got, _ := fs.ReadFile("cas/f"); string(got) != "fresh" {
			t.Fatalf("post-fault CAS content = %q", got)
		}
	})
}

// TestBackendParity drives an identical mutation history through both
// backends and requires every observable — listings, contents, sizes —
// to agree, and version semantics (nonzero when touched, including
// tombstones) to hold on both. Exact version numbers are not part of
// the contract: the in-memory FS draws from one global counter, the
// disk backend counts per dataset; CAS and tombstone detection only
// need per-dataset monotonicity.
func TestBackendParity(t *testing.T) {
	mem := New()
	disk, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	defer disk.Close()

	apply := func(fs Backend) {
		for _, w := range []struct{ p, data string }{
			{"tmp/q1/j1/part-00000", "a\n"},
			{"tmp/q1/j1/part-00001", "bb\n"},
			{"restore/q1/op2/part-00000", "ccc\n"},
			{"sys/repo/MANIFEST", "manifest-v1"},
			{"sys/repo/log/r1", "rec1"},
		} {
			if err := fs.WriteFile(w.p, []byte(w.data)); err != nil {
				t.Fatal(err)
			}
		}
		fs.WriteFile("tmp/q1/j1/part-00000", []byte("a2\n")) // overwrite
		if err := fs.Delete("sys/repo/log/r1"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Rename("tmp/q1/j1", "restore/q1/op3"); err != nil {
			t.Fatal(err)
		}
		if _, ok := fs.WriteFileIf("sys/locks/fp", []byte("lease"), fs.Version("sys/locks/fp")); !ok {
			t.Fatal("CAS create failed")
		}
		if !fs.RemoveFileIf("sys/locks/fp", fs.Version("sys/locks/fp")) {
			t.Fatal("CAS remove failed")
		}
	}
	apply(mem)
	apply(disk)

	if got, want := disk.Datasets(""), mem.Datasets(""); len(got) != len(want) {
		t.Fatalf("dataset sets diverge: disk %v, memory %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dataset sets diverge: disk %v, memory %v", got, want)
			}
		}
	}
	for _, ds := range mem.Datasets("") {
		if disk.Version(ds) == 0 || mem.Version(ds) == 0 {
			t.Errorf("Version(%s): disk %d, memory %d; live datasets must be versioned", ds, disk.Version(ds), mem.Version(ds))
		}
		if g, w := disk.Size(ds), mem.Size(ds); g != w {
			t.Errorf("Size(%s): disk %d, memory %d", ds, g, w)
		}
		files := mem.List(ds)
		dfiles := disk.List(ds)
		if len(files) != len(dfiles) {
			t.Fatalf("List(%s): disk %v, memory %v", ds, dfiles, files)
		}
		for _, p := range files {
			g, gerr := disk.ReadFile(p)
			w, werr := mem.ReadFile(p)
			if (gerr == nil) != (werr == nil) || string(g) != string(w) {
				t.Errorf("ReadFile(%s): disk %q/%v, memory %q/%v", p, g, gerr, w, werr)
			}
		}
	}
	// Deleted and vacated datasets carry tombstone versions on both:
	// "absent" is never "version zero" once a dataset existed.
	for _, ds := range []string{"sys/repo/log/r1", "tmp/q1/j1", "sys/locks/fp"} {
		if disk.Version(ds) == 0 || mem.Version(ds) == 0 {
			t.Errorf("tombstone Version(%s): disk %d, memory %d; want both nonzero", ds, disk.Version(ds), mem.Version(ds))
		}
	}
	if g, w := disk.TotalBytes(), mem.TotalBytes(); g != w {
		t.Errorf("TotalBytes: disk %d, memory %d", g, w)
	}
}
