package testutil

import (
	"fmt"
	"slices"

	"cutfit/internal/pregel"
)

// SameTopology reports the first difference between two partitioned
// topologies, or nil when they are identical: partition count, per-edge
// assignment order, every partition's mirror table and local edge list,
// and every vertex's mirror routing. It reads public accessors only, so it
// holds however either side was produced (build, patch or restore). Build
// options are execution policy, not topology, and are not compared.
func SameTopology(got, want *pregel.PartitionedGraph) error {
	if got.NumParts != want.NumParts || len(got.Parts) != len(want.Parts) {
		return fmt.Errorf("%d partitions, want %d", got.NumParts, want.NumParts)
	}
	if !slices.Equal(got.AssignOrder(), want.AssignOrder()) {
		return fmt.Errorf("assignment order differs")
	}
	for p, wp := range want.Parts {
		gp := got.Parts[p]
		if !slices.Equal(gp.LocalVerts, wp.LocalVerts) || gp.NumEdges() != wp.NumEdges() {
			return fmt.Errorf("partition %d mirror table or edge count differs", p)
		}
		for j := 0; j < wp.NumEdges(); j++ {
			gs, gd := gp.EdgeAt(j)
			if ws, wd := wp.EdgeAt(j); gs != ws || gd != wd {
				return fmt.Errorf("partition %d edge %d is (%d,%d), want (%d,%d)", p, j, gs, gd, ws, wd)
			}
		}
	}
	if got.G.NumVertices() != want.G.NumVertices() {
		return fmt.Errorf("graph has %d vertices, want %d", got.G.NumVertices(), want.G.NumVertices())
	}
	for v := int32(0); v < int32(want.G.NumVertices()); v++ {
		var gm, wm []int32
		got.ForEachMirror(v, func(part, local int32) { gm = append(gm, part, local) })
		want.ForEachMirror(v, func(part, local int32) { wm = append(wm, part, local) })
		if !slices.Equal(gm, wm) {
			return fmt.Errorf("vertex %d routes to mirrors %v, want %v", v, gm, wm)
		}
	}
	return nil
}
