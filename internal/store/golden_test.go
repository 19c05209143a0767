package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cutfit/internal/graph"
	"cutfit/internal/partition"
	"cutfit/internal/snap"
	"cutfit/internal/testutil"
)

// goldenDir is the snapshot golden corpus, committed next to the codecs.
const goldenDir = "../snap/testdata/golden"

func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The golden tuple: the graph committed as graph.snap, under 2D at four
// partitions, registered as "golden" (internal/snap's goldenArtifacts).
const (
	goldenParts = 4
	goldenLabel = "golden"
)

// goldenCache decodes the golden graph and returns a store holding its
// assignment, metric set and built topology, computed from scratch.
func goldenCache(t *testing.T) (*Store, *graph.Graph) {
	t.Helper()
	g, err := snap.DecodeGraph(readGolden(t, "graph.snap"))
	if err != nil {
		t.Fatal(err)
	}
	st := New(Config{})
	s := partition.EdgePartition2D()
	if _, err := st.Metrics(g, s, goldenParts); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Built(g, s, goldenParts); err != nil {
		t.Fatal(err)
	}
	return st, g
}

// TestGoldenPersistBytes: Persist of the golden cache writes exactly the
// committed persist.snap — a byte change to what a snapshot holds is a
// deliberate decision, never an accident.
func TestGoldenPersistBytes(t *testing.T) {
	st, g := goldenCache(t)
	var buf bytes.Buffer
	if _, err := st.Persist(&buf, map[string]*graph.Graph{goldenLabel: g}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), readGolden(t, "persist.snap")) {
		t.Fatal("Persist of the golden cache differs from the committed persist.snap")
	}
}

// TestGoldenStoreRestore: both committed bundles — the legacy store.snap,
// whose topology record embeds a full topology container, and the current
// persist.snap, whose topology record is key-only — restore to artifacts
// bit-identical to a from-scratch computation, topology included, and
// serve the first requests as pure hits.
func TestGoldenStoreRestore(t *testing.T) {
	want, g0 := goldenCache(t)
	s := partition.EdgePartition2D()
	wantA, err := want.Assignment(g0, s, goldenParts)
	if err != nil {
		t.Fatal(err)
	}
	wantM, err := want.Metrics(g0, s, goldenParts)
	if err != nil {
		t.Fatal(err)
	}
	wantPG, err := want.Built(g0, s, goldenParts)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"store.snap", "persist.snap"} {
		st := New(Config{})
		named, err := st.Restore(bytes.NewReader(readGolden(t, name)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g := named[goldenLabel]
		if len(named) != 1 || g == nil {
			t.Fatalf("%s: restored names %v", name, named)
		}
		if !reflect.DeepEqual(g.Edges(), g0.Edges()) || !reflect.DeepEqual(g.Vertices(), g0.Vertices()) {
			t.Fatalf("%s: restored graph differs", name)
		}
		a, err := st.Assignment(g, s, goldenParts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.PIDs, wantA.PIDs) || !reflect.DeepEqual(a.EdgesPerPart, wantA.EdgesPerPart) ||
			a.Strategy != wantA.Strategy || a.StrategyKey() != wantA.StrategyKey() {
			t.Fatalf("%s: restored assignment differs", name)
		}
		m, err := st.Metrics(g, s, goldenParts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m, wantM) {
			t.Fatalf("%s: restored metrics differ:\n got %+v\nwant %+v", name, m, wantM)
		}
		pg, err := st.Built(g, s, goldenParts)
		if err != nil {
			t.Fatal(err)
		}
		if err := testutil.SameTopology(pg, wantPG); err != nil {
			t.Fatalf("%s: restored topology differs: %v", name, err)
		}
		if stats := st.Stats(); stats.Misses != 0 || stats.Hits != 3 {
			t.Fatalf("%s: post-restore stats %+v, want 3 hits / 0 misses", name, stats)
		}
	}
}
