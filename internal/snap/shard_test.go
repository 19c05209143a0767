package snap

import "testing"

// TestDecodeShardRejectsUnorderedParts: parts must be strictly ascending
// by index, so a repeated or reordered partition never reaches a worker.
func TestDecodeShardRejectsUnorderedParts(t *testing.T) {
	_, _, pg, _ := goldenArtifacts(t)
	for name, order := range map[string][]int{
		"repeated":   {0, 1, 1, 2},
		"descending": {0, 2, 1, 3},
		"repeated 0": {0, 0},
	} {
		sp := goldenShard(pg)
		parts := make([]ShardPart, 0, len(order))
		for _, p := range order {
			parts = append(parts, sp.Parts[p])
		}
		sp.Parts = parts
		if _, err := DecodeShard(EncodeShard(sp)); err == nil {
			t.Errorf("%s parts %v decoded", name, order)
		}
	}
}
