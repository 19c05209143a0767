package graph

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestEdgeListRoundTrip(t *testing.T) {
	g := FromEdges([]Edge{{0, 1}, {1, 2}, {2, 0}, {5, 5}})
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEdges(g, back) {
		t.Fatalf("round trip mismatch: %v vs %v", g.Edges(), back.Edges())
	}
}

func TestReadEdgeListCommentsAndBlank(t *testing.T) {
	in := "# header\n% other comment\n\n1 2\n3\t4\n  5   6  \n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3", g.NumEdges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"1\n",        // missing destination
		"a b\n",      // non-numeric source
		"1 b\n",      // non-numeric destination
		"1 2 x\na\n", // bad later line
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

// TestEdgeCodec covers the EncodeEdges/DecodeEdges payload directly: random
// round trips, the empty list, and truncation at every byte.
func TestEdgeCodec(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"round_trip", func(t *testing.T) {
			check := func(seed uint64) bool {
				edges := randomGraph(seed, 40, 150).Edges()
				back, err := DecodeEdges(EncodeEdges(nil, edges))
				return err == nil && slices.Equal(back, edges)
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
				t.Fatal(err)
			}
		}},
		{"empty_graph", func(t *testing.T) {
			back, err := DecodeEdges(EncodeEdges(nil, New(0).Edges()))
			if err != nil {
				t.Fatal(err)
			}
			if len(back) != 0 {
				t.Fatalf("edges = %d, want 0", len(back))
			}
		}},
		{"truncated", func(t *testing.T) {
			raw := EncodeEdges(nil, []Edge{{0, 1}, {1, 2}})
			for n := 0; n < len(raw); n++ {
				if _, err := DecodeEdges(raw[:n]); err == nil {
					t.Fatalf("payload truncated to %d of %d bytes decoded without error", n, len(raw))
				}
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}

func sameEdges(a, b *Graph) bool {
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		return false
	}
	for i := range ea {
		if ea[i] != eb[i] {
			return false
		}
	}
	return true
}
