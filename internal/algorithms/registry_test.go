package algorithms

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"cutfit/internal/graph"
	"cutfit/internal/partition"
)

func TestRegistryLookup(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("registry is empty")
	}
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			t.Fatalf("registry lists %q twice", name)
		}
		seen[name] = true
		a, err := Lookup(name)
		if err != nil || a.Name != name {
			t.Fatalf("Lookup(%q) = %v, %v", name, a, err)
		}
		if a.Params == nil || a.Run == nil || a.Summarise == nil || a.Profile.Metric == "" {
			t.Fatalf("entry %q is incomplete", name)
		}
	}
	_, err := Lookup("quicksort")
	if err == nil {
		t.Fatal("unknown algorithm should error")
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-algorithm error %q does not list %q", err, name)
		}
	}
}

func TestRegistryParams(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{{Src: 7, Dst: 8}, {Src: 8, Dst: 9}})
	for _, tc := range []struct {
		alg   string
		g     *graph.Graph
		iters int
		want  Params
		fails bool
	}{
		{"pagerank", g, 10, Params{Iters: 10, ResetProb: DefaultResetProb}, false},
		{"pagerank", nil, 0, Params{}, true},
		{"dynamicpr", g, 0, Params{Tol: dynamicPRTol, ResetProb: DefaultResetProb}, false},
		{"cc", nil, 0, Params{}, false},
		{"cc", nil, -1, Params{}, true},
		{"triangles", g, -5, Params{}, false},
		{"sssp", g, 10, Params{Landmarks: []graph.VertexID{7}}, false},
		{"sssp", nil, 10, Params{}, false},
		{"sssp", graph.New(0), 10, Params{}, true},
	} {
		a, err := Lookup(tc.alg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.Params(tc.g, tc.iters)
		if tc.fails {
			if err == nil {
				t.Errorf("%s(iters=%d): expected an error", tc.alg, tc.iters)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s(iters=%d) = %+v, %v; want %+v", tc.alg, tc.iters, got, err, tc.want)
		}
	}
}

// TestRegistrySummaries checks every entry's run + summary against the
// sequential oracles on a two-triangle graph.
func TestRegistrySummaries(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0},
		{Src: 3, Dst: 4}, {Src: 4, Dst: 5}, {Src: 5, Dst: 3},
	})
	pg := mustPartition(t, g, partition.EdgePartition2D(), 4)
	zero := graph.VertexID(0)
	// The graph is symmetric under rotation, so every rank ties and the
	// summary lists the lowest vertex IDs.
	topRanks := func(s Summary) bool {
		if len(s.TopRanks) != topRankCount {
			return false
		}
		for i, r := range s.TopRanks {
			if r.Vertex != graph.VertexID(i) || r.Rank != s.TopRanks[0].Rank {
				return false
			}
		}
		return true
	}
	want := map[string]func(Summary) bool{
		"pagerank":  topRanks,
		"dynamicpr": topRanks,
		"cc":        func(s Summary) bool { return s.Components == CountComponents(ConnectedComponentsSeq(g)) },
		"triangles": func(s Summary) bool { return s.Triangles == TotalTriangles(TriangleCountSeq(g)) },
		"sssp": func(s Summary) bool {
			return reflect.DeepEqual(s.Landmark, &zero) && s.Reached == 3
		},
	}
	for _, name := range Names() {
		a, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		check, ok := want[name]
		if !ok {
			t.Errorf("no summary check for registry entry %q", name)
			continue
		}
		p, err := a.Params(g, 10)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := a.Run(context.Background(), pg, p)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if s := a.Summarise(g, p, out); !check(s) {
			t.Errorf("%s: summary %+v disagrees with the oracle", a.Name, s)
		}
	}
}
