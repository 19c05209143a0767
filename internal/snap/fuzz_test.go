package snap

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzSeeds returns the golden corpus plus structured mutations of it:
// flipped header fields, mangled section tables and truncations, so the
// fuzzer starts at the interesting boundaries instead of random noise.
func fuzzSeeds(t testing.TB) [][]byte {
	t.Helper()
	var seeds [][]byte
	for _, name := range []string{"graph.snap", "assignment.snap", "metrics.snap", "store.snap", "persist.snap", "shard.snap", "shard-delta.snap", "blockgraph.snap"} {
		data := readGolden(t, name)
		seeds = append(seeds, data)
		// Truncations at structural boundaries.
		for _, n := range []int{0, 7, 8, headerFixed, headerFixed + tableEntry, len(data) / 2, len(data) - 1} {
			if n >= 0 && n < len(data) {
				seeds = append(seeds, data[:n])
			}
		}
		// Header and section-table mutations.
		for _, off := range []int{0, 8, 12, 16, headerFixed, headerFixed + 4, headerFixed + 12} {
			if off < len(data) {
				m := append([]byte(nil), data...)
				m[off] ^= 0x01
				seeds = append(seeds, m)
			}
		}
	}
	seeds = append(seeds, nil, magic[:], append(append([]byte(nil), magic[:]...), 1, 0, 0, 0))
	return seeds
}

// FuzzDecodeSnapshot drives the container parser and every typed decoder
// with arbitrary bytes: nothing may panic or over-allocate, and anything
// that decodes must be internally consistent (all decoder invariants ran).
// The header's kind field picks the decoder, because a block-graph image
// (a container prefix followed by its payload region) never parses as a
// bare container.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	g := goldenGraph()
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = Decode(data)
		if len(data) < headerFixed {
			return
		}
		switch Kind(binary.LittleEndian.Uint32(data[12:])) {
		case KindGraph:
			if dg, err := DecodeGraph(data); err == nil {
				if dg.NumEdges() < 0 || dg.NumVertices() < 0 {
					t.Fatal("decoded graph with negative counts")
				}
				if err := dg.Validate(); err != nil {
					t.Fatalf("decoded graph fails Validate: %v", err)
				}
			}
		case KindAssignment:
			if a, err := DecodeAssignment(data, g, ""); err == nil {
				if len(a.PIDs) != g.NumEdges() {
					t.Fatalf("decoded assignment covers %d of %d edges", len(a.PIDs), g.NumEdges())
				}
				var sum int64
				for _, c := range a.EdgesPerPart {
					sum += c
				}
				if sum != int64(len(a.PIDs)) {
					t.Fatal("decoded assignment histogram does not sum to the edge count")
				}
			}
		case KindMetrics:
			if m, err := DecodeMetrics(data, g, ""); err == nil {
				if m.NonCut+m.Cut > int64(g.NumVertices()) {
					t.Fatal("decoded metrics count more cut+noncut vertices than the graph has")
				}
			}
		case KindStore:
			_, _, _ = DecodeStore(data)
		case KindBlockGraph:
			if bg, err := OpenBlockGraphAt(bytes.NewReader(data), int64(len(data))); err == nil {
				if !bg.BlockBacked() {
					t.Fatal("opened block graph is not block-backed")
				}
				if err := bg.Validate(); err != nil {
					t.Fatalf("opened block graph fails Validate: %v", err)
				}
			}
		case KindShard:
			if sp, err := DecodeShard(data); err == nil {
				if len(sp.OutDeg) != sp.NumVerts {
					t.Fatalf("decoded shard has %d out-degrees for %d vertices", len(sp.OutDeg), sp.NumVerts)
				}
				for _, p := range sp.Parts {
					if p.Index < 0 || p.Index >= sp.NumParts || len(p.EdgeSrc) != len(p.EdgeDst) {
						t.Fatalf("decoded shard part %d is inconsistent", p.Index)
					}
				}
			}
		}
	})
}

// FuzzDecodeAssignment focuses the fuzzer on the assignment decoder — the
// artifact the disk tier reads most — against the fixed golden graph.
// A successful decode must satisfy every Assignment invariant.
func FuzzDecodeAssignment(f *testing.F) {
	data := readGolden(f, "assignment.snap")
	f.Add(data)
	for _, n := range []int{0, 8, headerFixed, len(data) / 3, len(data) - 2} {
		if n >= 0 && n < len(data) {
			f.Add(data[:n])
		}
	}
	for _, off := range []int{8, 12, 16, headerFixed, len(data) - 5} {
		if off >= 0 && off < len(data) {
			m := append([]byte(nil), data...)
			m[off] ^= 0x80
			f.Add(m)
		}
	}
	g := goldenGraph()
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeAssignment(data, g, "")
		if err != nil {
			return
		}
		if len(a.PIDs) != g.NumEdges() {
			t.Fatalf("decoded assignment covers %d of %d edges", len(a.PIDs), g.NumEdges())
		}
		if a.NumParts <= 0 || len(a.EdgesPerPart) != a.NumParts {
			t.Fatal("decoded assignment with inconsistent partition count")
		}
		var sum int64
		for p, c := range a.EdgesPerPart {
			if c < 0 {
				t.Fatalf("negative histogram count at partition %d", p)
			}
			sum += c
		}
		if sum != int64(len(a.PIDs)) {
			t.Fatal("histogram does not sum to the edge count")
		}
		for i, p := range a.PIDs {
			if p < 0 || int(p) >= a.NumParts {
				t.Fatalf("edge %d decoded to out-of-range partition %d", i, p)
			}
		}
	})
}
