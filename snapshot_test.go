// Round-trip property suite for the persistence subsystem: a snapshotted
// session, restored in a "new process", must serve bit-identical artifacts
// and algorithm results for every strategy family and graph family —
// including a grown (post-AppendEdges) generation — without a single
// recomputation.
package cutfit_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"cutfit"
	"cutfit/internal/testutil"
)

// snapshotStrategies covers every strategy family the library ships: the
// 2D grid hash, the locality-preserving modulo, both streaming partitioners
// (whose restored assignments must not depend on retained stream state) and
// the parameterized hybrid cut (whose cache key is not its table name).
func snapshotStrategies(t *testing.T) []cutfit.Strategy {
	t.Helper()
	var out []cutfit.Strategy
	for _, name := range []string{"2D", "SC", "Greedy", "HDRF"} {
		s, err := cutfit.StrategyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return append(out, cutfit.HybridCut(4))
}

// TestSnapshotRestoreRoundTrip: snapshot → restore over every strategy ×
// graph family yields bit-identical assignments, metrics and PageRank/CC
// results, and topologies equal to a from-scratch build, with the restored
// session never re-partitioning (cache counters asserted from the first
// request on). A grown generation rides along in the same snapshot.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	const parts = 16
	ctx := context.Background()
	strategies := snapshotStrategies(t)

	for name, g := range pipelineGraphs(t) {
		t.Run(name, func(t *testing.T) {
			se := cutfit.NewSession(cutfit.SessionOptions{})

			type want struct {
				pids    []cutfit.PID
				metrics *cutfit.Metrics
				pr, cc  *cutfit.RunReport
			}
			wants := make(map[string]want, len(strategies))
			for _, s := range strategies {
				a, err := se.Assignment(g, s, parts)
				if err != nil {
					t.Fatal(err)
				}
				m, err := se.Measure(g, s, parts)
				if err != nil {
					t.Fatal(err)
				}
				pr, err := se.Run(ctx, g, s, parts, "pagerank", 5)
				if err != nil {
					t.Fatal(err)
				}
				cc, err := se.Run(ctx, g, s, parts, "cc", 0)
				if err != nil {
					t.Fatal(err)
				}
				wants[s.Name()] = want{pids: append([]cutfit.PID(nil), a.PIDs...), metrics: m, pr: pr, cc: cc}
			}

			// A grown generation: append a batch (including a brand-new
			// vertex) and warm it under 2D.
			verts := g.Vertices()
			next := verts[len(verts)-1] + 1
			batch := []cutfit.Edge{
				{Src: verts[0], Dst: next}, {Src: next, Dst: verts[1]}, {Src: verts[2], Dst: verts[0]},
			}
			ng, err := se.AppendEdges(g, batch)
			if err != nil {
				t.Fatal(err)
			}
			grownStrategy := strategies[0] // 2D
			ga, err := se.Assignment(ng, grownStrategy, parts)
			if err != nil {
				t.Fatal(err)
			}
			grownPIDs := append([]cutfit.PID(nil), ga.PIDs...)
			grownPR, err := se.Run(ctx, ng, grownStrategy, parts, "pagerank", 5)
			if err != nil {
				t.Fatal(err)
			}

			var buf bytes.Buffer
			sum, err := se.SnapshotNamed(&buf, map[string]*cutfit.Graph{"base": g, "grown": ng})
			if err != nil {
				t.Fatal(err)
			}
			if sum.Graphs != 2 {
				t.Fatalf("snapshot recorded %d graphs, want 2", sum.Graphs)
			}

			se2, named, err := cutfit.RestoreSession(bytes.NewReader(buf.Bytes()), cutfit.SessionOptions{})
			if err != nil {
				t.Fatal(err)
			}
			g2, ng2 := named["base"], named["grown"]
			if g2 == nil || ng2 == nil {
				t.Fatalf("restored names %v, want base and grown", named)
			}
			if g2.NumEdges() != g.NumEdges() || ng2.NumEdges() != ng.NumEdges() {
				t.Fatal("restored graphs have different edge counts")
			}
			if _, err := se2.Partition(g2, strategies[0], parts); err != nil {
				t.Fatal(err)
			}
			if stats := se2.CacheStats(); stats.Misses != 0 || stats.Hits != 1 {
				t.Fatalf("first request after restore: stats %+v, want a hit with 0 misses", stats)
			}

			for _, s := range strategies {
				w := wants[s.Name()]
				pg2, err := se2.Partition(g2, s, parts)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := cutfit.Partition(g2, s, parts)
				if err != nil {
					t.Fatal(err)
				}
				if err := testutil.SameTopology(pg2, fresh); err != nil {
					t.Fatalf("%s: restored topology differs from a from-scratch build: %v", s.Name(), err)
				}
				a2, err := se2.Assignment(g2, s, parts)
				if err != nil {
					t.Fatalf("%s: %v", s.Name(), err)
				}
				if !reflect.DeepEqual(a2.PIDs, w.pids) {
					t.Fatalf("%s: restored assignment differs", s.Name())
				}
				m2, err := se2.Measure(g2, s, parts)
				if err != nil {
					t.Fatal(err)
				}
				if d := metricsDiff(m2, w.metrics); d != "" {
					t.Fatalf("%s: restored metrics differ: %s", s.Name(), d)
				}
				pr2, err := se2.Run(ctx, g2, s, parts, "pagerank", 5)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(pr2, w.pr) {
					t.Fatalf("%s: restored PageRank run differs:\n got %+v\nwant %+v", s.Name(), pr2, w.pr)
				}
				cc2, err := se2.Run(ctx, g2, s, parts, "cc", 0)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(cc2, w.cc) {
					t.Fatalf("%s: restored CC run differs", s.Name())
				}
			}

			ga2, err := se2.Assignment(ng2, grownStrategy, parts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ga2.PIDs, grownPIDs) {
				t.Fatal("restored grown-generation assignment differs")
			}
			gpr2, err := se2.Run(ctx, ng2, grownStrategy, parts, "pagerank", 5)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gpr2, grownPR) {
				t.Fatal("restored grown-generation PageRank run differs")
			}

			stats := se2.CacheStats()
			if stats.Misses != 0 {
				t.Fatalf("restored session recomputed %d artifacts (stats %+v) — restore must make every request a hit", stats.Misses, stats)
			}
			if stats.Hits == 0 {
				t.Fatalf("restored session served no hits: %+v", stats)
			}
		})
	}
}

// TestSnapshotDiskTierWarmStart: with only the disk tier (no snapshot
// stream), a second session over the same directory — and a fresh graph
// object with identical content — restores artifacts from disk instead of
// re-partitioning, through the public Session surface.
func TestSnapshotDiskTierWarmStart(t *testing.T) {
	dir := t.TempDir()
	graphs := pipelineGraphs(t)
	g := graphs["rmat"]
	s, err := cutfit.StrategyByName("2D")
	if err != nil {
		t.Fatal(err)
	}
	const parts = 16

	se1 := cutfit.NewSession(cutfit.SessionOptions{DiskDir: dir})
	want, err := se1.Measure(g, s, parts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := se1.Partition(g, s, parts); err != nil {
		t.Fatal(err)
	}
	if n, err := se1.Flush(); err != nil || n == 0 {
		t.Fatalf("Flush wrote %d entries, err %v", n, err)
	}

	// "Restart": same content, new object, new session.
	g2 := cutfit.FromEdges(append([]cutfit.Edge(nil), g.Edges()...))
	se2 := cutfit.NewSession(cutfit.SessionOptions{DiskDir: dir})
	got, err := se2.Measure(g2, s, parts)
	if err != nil {
		t.Fatal(err)
	}
	if d := metricsDiff(got, want); d != "" {
		t.Fatalf("disk-restored metrics differ: %s", d)
	}
	if _, err := se2.Partition(g2, s, parts); err != nil {
		t.Fatal(err)
	}
	stats := se2.CacheStats()
	if stats.DiskHits < 2 {
		t.Fatalf("expected ≥2 disk hits (metrics + assignment), got %+v", stats)
	}
}

// TestRestoreSessionRejectsCorruption: RestoreSession must fail loudly on
// a tampered snapshot rather than serve a wrong-but-plausible cache.
func TestRestoreSessionRejectsCorruption(t *testing.T) {
	g := pipelineGraphs(t)["random"]
	s, _ := cutfit.StrategyByName("2D")
	se := cutfit.NewSession(cutfit.SessionOptions{})
	if _, err := se.Measure(g, s, 8); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := se.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for i := 0; i < len(data); i += 997 {
		mutated := append([]byte(nil), data...)
		mutated[i] ^= 0xFF
		if _, _, err := cutfit.RestoreSession(bytes.NewReader(mutated), cutfit.SessionOptions{}); err == nil {
			t.Fatalf("flip at byte %d restored successfully", i)
		}
	}
	if _, _, err := cutfit.RestoreSession(bytes.NewReader(data[:len(data)/2]), cutfit.SessionOptions{}); err == nil {
		t.Fatal("truncated snapshot restored successfully")
	}
}

// TestOneShotSessionSnapshotErrors: the zero-value one-shot session has no
// cache and must refuse to snapshot rather than write an empty container.
func TestOneShotSessionSnapshotErrors(t *testing.T) {
	var se cutfit.Session
	if err := se.Snapshot(&bytes.Buffer{}); err == nil {
		t.Fatal("one-shot session snapshot must error")
	}
	if n, err := se.Flush(); n != 0 || err != nil {
		t.Fatalf("one-shot Flush = (%d, %v), want (0, nil)", n, err)
	}
}
