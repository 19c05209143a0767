package snap

import (
	"encoding/binary"
	"fmt"

	"cutfit/internal/graph"
)

// Shard sections. The parts section packs a variable number of partition
// tables, so it carries its own per-partition framing inside one section.
const (
	secShardVerts  = 2
	secShardOutDeg = 3
	secShardParts  = 4
)

// Reserved wire words. The meta section keeps two words and every part
// entry keeps a mode word from the retired per-partition delta layout, so
// the container stays byte-for-byte what it was: the encoder writes
// shardReserved to the meta words and shardPartFull to the mode word, and
// the decoder rejects any other value (a delta payload from an older peer).
const (
	shardReserved = 0
	shardPartFull = 1
)

// ShardPart is one owned partition's tables inside a shard payload: the
// local→global vertex map and the edge endpoint columns, in partition edge
// order (which the compute scan preserves).
type ShardPart struct {
	Index      int
	LocalVerts []int32
	EdgeSrc    []int32
	EdgeDst    []int32
}

// ShardPayload is one worker's slice of a partitioned topology: GraphFP
// names the graph generation the shard belongs to, and the vertex and
// out-degree tables ship whole. Parts are strictly ascending by Index.
type ShardPayload struct {
	GraphFP  uint64
	NumParts int
	NumVerts int
	Verts    []graph.VertexID
	OutDeg   []int32
	Parts    []ShardPart
}

// EncodeShard packs a shard payload into a container.
func EncodeShard(sp *ShardPayload) []byte {
	var meta []byte
	meta = binary.LittleEndian.AppendUint64(meta, sp.GraphFP)
	meta = binary.LittleEndian.AppendUint64(meta, shardReserved)
	meta = binary.LittleEndian.AppendUint64(meta, uint64(sp.NumParts))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(sp.NumVerts))
	meta = binary.LittleEndian.AppendUint64(meta, shardReserved)

	var parts []byte
	parts = binary.LittleEndian.AppendUint32(parts, uint32(len(sp.Parts)))
	for i := range sp.Parts {
		p := &sp.Parts[i]
		parts = binary.LittleEndian.AppendUint32(parts, uint32(p.Index))
		parts = binary.LittleEndian.AppendUint32(parts, shardPartFull)
		parts = appendBlob(parts, encodeI32s(p.LocalVerts))
		parts = appendBlob(parts, encodeI32s(p.EdgeSrc))
		parts = appendBlob(parts, encodeI32s(p.EdgeDst))
	}

	b := NewBuilder(KindShard)
	b.Section(secMeta, meta)
	b.Section(secShardVerts, encodeVertexList(sp.Verts))
	b.Section(secShardOutDeg, encodeI32s(sp.OutDeg))
	b.Section(secShardParts, parts)
	return b.Bytes()
}

// DecodeShard unpacks a shard container, validating structure: reserved
// words, strictly ascending in-range partition indices, table lengths.
// CRCs are checked by the container layer; topology validation — ascending
// local vertex tables, in-range endpoints — is the consumer's job via
// pregel.NewPartition.
func DecodeShard(data []byte) (*ShardPayload, error) {
	c, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if err := expectKind(c, KindShard); err != nil {
		return nil, err
	}

	msec, err := section(c, secMeta, "meta")
	if err != nil {
		return nil, err
	}
	mr := &fieldReader{b: msec}
	sp := &ShardPayload{GraphFP: mr.u64()}
	base := mr.u64()
	sp.NumParts = int(mr.u64())
	sp.NumVerts = int(mr.u64())
	oldVerts := mr.u64()
	if err := mr.finish(); err != nil {
		return nil, err
	}
	if base != shardReserved || oldVerts != shardReserved {
		return nil, fmt.Errorf("snap: shard reserved meta words %d, %d are not zero (a delta shard?)", base, oldVerts)
	}
	if sp.NumParts <= 0 || sp.NumVerts < 0 {
		return nil, fmt.Errorf("snap: shard meta out of range: parts=%d verts=%d", sp.NumParts, sp.NumVerts)
	}

	vsec, err := section(c, secShardVerts, "vertex list")
	if err != nil {
		return nil, err
	}
	sp.Verts, err = decodeVertexList(vsec, uint64(sp.NumVerts))
	if err != nil {
		return nil, err
	}

	dsec, err := section(c, secShardOutDeg, "out-degree")
	if err != nil {
		return nil, err
	}
	sp.OutDeg, err = decodeI32s(dsec, "out-degree")
	if err != nil {
		return nil, err
	}
	if len(sp.OutDeg) != sp.NumVerts {
		return nil, fmt.Errorf("snap: shard out-degree table holds %d entries, meta says %d", len(sp.OutDeg), sp.NumVerts)
	}

	psec, err := section(c, secShardParts, "partitions")
	if err != nil {
		return nil, err
	}
	pr := &fieldReader{b: psec}
	n := int(pr.u32())
	if pr.err == nil && n > sp.NumParts {
		return nil, fmt.Errorf("snap: shard carries %d partitions, topology has %d", n, sp.NumParts)
	}
	for i := 0; i < n && pr.err == nil; i++ {
		p := ShardPart{Index: int(pr.u32())}
		mode := pr.u32()
		lvb := pr.blob()
		srcb := pr.blob()
		dstb := pr.blob()
		if pr.err != nil {
			break
		}
		if p.Index < 0 || p.Index >= sp.NumParts {
			return nil, fmt.Errorf("snap: shard partition index %d out of range [0,%d)", p.Index, sp.NumParts)
		}
		if i > 0 && p.Index <= sp.Parts[i-1].Index {
			return nil, fmt.Errorf("snap: shard partition %d follows %d: indices not strictly ascending", p.Index, sp.Parts[i-1].Index)
		}
		if mode != shardPartFull {
			return nil, fmt.Errorf("snap: shard partition %d has mode word %d, want %d (a delta shard?)", p.Index, mode, shardPartFull)
		}
		if p.LocalVerts, err = decodeI32s(lvb, "local verts"); err != nil {
			return nil, err
		}
		if p.EdgeSrc, err = decodeI32s(srcb, "edge sources"); err != nil {
			return nil, err
		}
		if p.EdgeDst, err = decodeI32s(dstb, "edge destinations"); err != nil {
			return nil, err
		}
		if len(p.EdgeSrc) != len(p.EdgeDst) {
			return nil, fmt.Errorf("snap: shard partition %d: %d edge sources vs %d destinations", p.Index, len(p.EdgeSrc), len(p.EdgeDst))
		}
		sp.Parts = append(sp.Parts, p)
	}
	if err := pr.finish(); err != nil {
		return nil, err
	}
	return sp, nil
}
