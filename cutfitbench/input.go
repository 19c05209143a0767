package main

import (
	"math/rand/v2"
	"strconv"
	"time"

	"cutfit"
	"cutfit/internal/gen"
)

// config sizes one benchmark run. defaultConfig is the measured setting;
// the self-test shrinks the graph and the partition count.
type config struct {
	seed       uint64
	scale      int     // RMAT vertex ID space is 2^scale
	edgeFactor float64 // RMAT edges ≈ edgeFactor · 2^scale
	parts      int
	seconds    time.Duration
	// minOps is the fewest ops a timed phase runs, deadline or not, so
	// every op kind of every mix runs at least once; phases end on whole
	// cycles of the mix.
	minOps    int
	spansPath string
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median of their CPU times.
const setupReps = 3

// defaultConfig is the paper's Table 2 setting: 128 partitions of a
// pocek-like graph of ~290K edges over ~13K vertices.
func defaultConfig(seed uint64, seconds float64) config {
	return config{
		seed:       seed,
		scale:      14,
		edgeFactor: 16,
		parts:      128,
		seconds:    time.Duration(seconds * float64(time.Second)),
		minOps:     24,
	}
}

// symmetryPct is pocek's reciprocated-edge share (paper Table 1).
const symmetryPct = 54.34

// generate builds the pocek-like social graph for cfg.seed and returns it
// as edge-list text, the only form in which the program sees it.
func generate(cfg config) ([]byte, error) {
	g, err := gen.RMAT(gen.RMATConfig{
		Scale: cfg.scale, EdgeFactor: cfg.edgeFactor,
		A: 0.57, B: 0.19, C: 0.19, D: 0.05,
		Noise: 0.1, Seed: cfg.seed,
	})
	if err != nil {
		return nil, err
	}
	g = gen.Connect(gen.DropSelfLoops(gen.Dedup(g)))
	if g, err = gen.Symmetrize(g, symmetryPct, cfg.seed+1); err != nil {
		return nil, err
	}
	text := make([]byte, 0, 16*g.NumEdges())
	for _, e := range g.Edges() {
		text = strconv.AppendInt(text, int64(e.Src), 10)
		text = append(text, ' ')
		text = strconv.AppendInt(text, int64(e.Dst), 10)
		text = append(text, '\n')
	}
	return text, nil
}

// rngFor returns the generator for stream i of a run: request mixes,
// append batches and the like draw from disjoint streams of one seed.
func rngFor(seed uint64, stream, i int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(stream)<<40|uint64(i)))
}

// deck deals a weighted mix without sampling noise: every cycle of
// len(entries) requests holds each entry exactly once, in a seeded order,
// so the op counts of a run match the weights to within one cycle.
type deck[T any] struct {
	seed    uint64
	stream  int
	entries []T
}

func (d deck[T]) at(i int) T {
	n := len(d.entries)
	perm := rngFor(d.seed, d.stream, i/n).Perm(n)
	return d.entries[perm[i%n]]
}

// randomEdges draws n edges between distinct vertices of verts.
func randomEdges(r *rand.Rand, verts []cutfit.VertexID, n int) []cutfit.Edge {
	out := make([]cutfit.Edge, 0, n)
	for len(out) < n {
		s, d := verts[r.IntN(len(verts))], verts[r.IntN(len(verts))]
		if s != d {
			out = append(out, cutfit.Edge{Src: s, Dst: d})
		}
	}
	return out
}
