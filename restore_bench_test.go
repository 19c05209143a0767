package cutfit_test

import (
	"os"
	"path/filepath"
	"testing"

	"cutfit"
	"cutfit/internal/datasets"
)

// BenchmarkRestoreVsRebuild measures what durability buys: serving the
// youtube analog's engine-ready partitioning (128 partitions, 2D) from a
// fresh session that either
//
//   - restore: reads the spilled assignment from the disk tier (one read,
//     decode and validation, zero strategy passes) and builds the topology
//     from it — topologies themselves are never persisted; or
//   - rebuild: re-partitions and re-builds from scratch — the cost every
//     deploy or crash paid before the disk tier existed.
//
// Both sides are exactly one Session.Partition call against the same
// registered in-memory graph; sessions are constructed outside the timer
// (an empty session is not restoration work). The gap between them is the
// strategy pass the disk tier saves.
//
// The restart pair below widens the scope to a full process restart from a
// snapshot file: the graph itself, the assignment artifact (histogram +
// strategy identity) and a topology rebuilt from it all come back from one
// read, versus a cold graph re-deriving its views and re-running the whole
// pipeline.
func BenchmarkRestoreVsRebuild(b *testing.B) {
	spec, err := datasets.ByName("youtube")
	if err != nil {
		b.Fatal(err)
	}
	g, err := spec.BuildCached()
	if err != nil {
		b.Fatal(err)
	}
	s := cutfit.EdgePartition2D()
	const parts = 128

	// One warm session produces both durable forms: the spilled disk-tier
	// entries and the snapshot file.
	dir := b.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	warm := cutfit.NewSession(cutfit.SessionOptions{DiskDir: cacheDir})
	if _, err := warm.Assignment(g, s, parts); err != nil {
		b.Fatal(err)
	}
	if _, err := warm.Partition(g, s, parts); err != nil {
		b.Fatal(err)
	}
	if n, err := warm.Flush(); err != nil || n < 1 {
		b.Fatalf("Flush wrote %d entries, err %v", n, err)
	}
	snapPath := filepath.Join(dir, "bench.snap")
	f, err := os.Create(snapPath)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := warm.SnapshotNamed(f, map[string]*cutfit.Graph{"youtube": g}); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}

	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			se := cutfit.NewSession(cutfit.SessionOptions{DiskDir: cacheDir})
			b.StartTimer()
			if _, err := se.Partition(g, s, parts); err != nil {
				b.Fatal(err)
			}
			if stats := se.CacheStats(); stats.DiskHits != 1 {
				b.Fatalf("disk tier did not serve the assignment: %+v", stats)
			}
		}
	})

	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			se := cutfit.NewSession(cutfit.SessionOptions{})
			b.StartTimer()
			if _, err := se.Partition(g, s, parts); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("restart", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f, err := os.Open(snapPath)
			if err != nil {
				b.Fatal(err)
			}
			se, named, err := cutfit.RestoreSession(f, cutfit.SessionOptions{})
			f.Close()
			if err != nil {
				b.Fatal(err)
			}
			rg := named["youtube"]
			if _, err := se.Assignment(rg, s, parts); err != nil {
				b.Fatal(err)
			}
			if _, err := se.Partition(rg, s, parts); err != nil {
				b.Fatal(err)
			}
			if stats := se.CacheStats(); stats.Misses != 0 {
				b.Fatalf("restart recomputed %d artifacts: %+v", stats.Misses, stats)
			}
		}
	})

	b.Run("restart-rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// A restart without durability: the graph object is cold (no
			// derived views) and the whole pipeline recomputes.
			cold := cutfit.FromEdges(append([]cutfit.Edge(nil), g.Edges()...))
			se := cutfit.NewSession(cutfit.SessionOptions{})
			if _, err := se.Assignment(cold, s, parts); err != nil {
				b.Fatal(err)
			}
			if _, err := se.Partition(cold, s, parts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
