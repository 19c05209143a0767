package snap

import (
	"encoding/binary"
	"fmt"
)

// Stage tags an artifact's pipeline stage inside a KindStore bundle. The
// numeric values are part of the on-disk format; never renumber.
type Stage uint8

const (
	// StageAssignment is a partition.Assignment container.
	StageAssignment Stage = 1
	// StageMetrics is a metrics.Result container.
	StageMetrics Stage = 2
	// StageTopology marks a built pregel.PartitionedGraph. The record is
	// key-only: its payload is empty (legacy bundles carry a KindTopology
	// container there) and is never decoded — the restoring side rebuilds
	// the topology from the same tuple's StageAssignment record.
	StageTopology Stage = 3
)

func (s Stage) valid() bool { return s >= StageAssignment && s <= StageTopology }

// StoreGraph is one graph record of a store bundle: the labels it is
// registered under (possibly none) and its encoded KindGraph container.
type StoreGraph struct {
	Labels []string
	Data   []byte
}

// StoreArtifact is one cached artifact of a store bundle: which graph it
// belongs to (an index into the bundle's graph list), its pipeline stage
// and cache identity, and its encoded artifact container.
type StoreArtifact struct {
	GraphIndex  int
	Stage       Stage
	StrategyKey string
	NumParts    int
	Data        []byte
}

const (
	secStoreGraphs    = 2
	secStoreArtifacts = 3
)

// EncodeStore encodes a whole-cache bundle: every graph (with its labels)
// and every cached artifact, each embedded as a nested, independently
// CRC-checked container. Callers are responsible for ordering the slices
// deterministically — the encoding preserves them verbatim.
func EncodeStore(graphs []StoreGraph, artifacts []StoreArtifact) []byte {
	var meta []byte
	meta = binary.LittleEndian.AppendUint32(meta, uint32(len(graphs)))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(len(artifacts)))

	var gsec []byte
	for _, g := range graphs {
		gsec = binary.LittleEndian.AppendUint32(gsec, uint32(len(g.Labels)))
		for _, l := range g.Labels {
			gsec = appendStr(gsec, l)
		}
		gsec = appendBlob(gsec, g.Data)
	}

	var asec []byte
	for _, a := range artifacts {
		asec = binary.LittleEndian.AppendUint32(asec, uint32(a.GraphIndex))
		asec = append(asec, byte(a.Stage))
		asec = appendStr(asec, a.StrategyKey)
		asec = binary.LittleEndian.AppendUint32(asec, uint32(a.NumParts))
		asec = appendBlob(asec, a.Data)
	}

	b := NewBuilder(KindStore)
	b.Section(secMeta, meta)
	b.Section(secStoreGraphs, gsec)
	b.Section(secStoreArtifacts, asec)
	return b.Bytes()
}

// DecodeStore parses a KindStore bundle, validating record counts, stage
// tags and graph indices. The nested graph/artifact containers are returned
// still encoded — decode them with DecodeGraph and the per-stage decoders,
// which run their own validation against the restored graphs.
func DecodeStore(data []byte) ([]StoreGraph, []StoreArtifact, error) {
	c, err := Decode(data)
	if err != nil {
		return nil, nil, err
	}
	if err := expectKind(c, KindStore); err != nil {
		return nil, nil, err
	}
	msec, err := section(c, secMeta, "meta")
	if err != nil {
		return nil, nil, err
	}
	mr := &fieldReader{b: msec}
	graphCount := mr.u32()
	artifactCount := mr.u32()
	if err := mr.finish(); err != nil {
		return nil, nil, err
	}

	gsec, err := section(c, secStoreGraphs, "graphs")
	if err != nil {
		return nil, nil, err
	}
	if uint64(graphCount) > uint64(len(gsec))/8+1 { // each record costs ≥ 8 bytes
		return nil, nil, fmt.Errorf("snap: graph count %d exceeds section size", graphCount)
	}
	gr := &fieldReader{b: gsec}
	graphs := make([]StoreGraph, 0, graphCount)
	for i := uint32(0); i < graphCount; i++ {
		labelCount := gr.u32()
		if uint64(labelCount) > uint64(len(gsec)) {
			return nil, nil, fmt.Errorf("snap: graph %d label count %d exceeds section size", i, labelCount)
		}
		var g StoreGraph
		for j := uint32(0); j < labelCount; j++ {
			g.Labels = append(g.Labels, gr.str())
		}
		g.Data = gr.blob()
		if gr.err != nil {
			return nil, nil, gr.err
		}
		graphs = append(graphs, g)
	}
	if err := gr.finish(); err != nil {
		return nil, nil, err
	}

	asec, err := section(c, secStoreArtifacts, "artifacts")
	if err != nil {
		return nil, nil, err
	}
	if uint64(artifactCount) > uint64(len(asec))/13+1 { // fixed fields cost 13 bytes
		return nil, nil, fmt.Errorf("snap: artifact count %d exceeds section size", artifactCount)
	}
	ar := &fieldReader{b: asec}
	artifacts := make([]StoreArtifact, 0, artifactCount)
	for i := uint32(0); i < artifactCount; i++ {
		var a StoreArtifact
		a.GraphIndex = int(ar.u32())
		stage := ar.take(1)
		if stage != nil {
			a.Stage = Stage(stage[0])
		}
		a.StrategyKey = ar.str()
		a.NumParts = int(ar.u32())
		a.Data = ar.blob()
		if ar.err != nil {
			return nil, nil, ar.err
		}
		if !a.Stage.valid() {
			return nil, nil, fmt.Errorf("snap: artifact %d has unknown stage %d", i, a.Stage)
		}
		if a.GraphIndex >= len(graphs) {
			return nil, nil, fmt.Errorf("snap: artifact %d references graph %d of %d", i, a.GraphIndex, len(graphs))
		}
		artifacts = append(artifacts, a)
	}
	if err := ar.finish(); err != nil {
		return nil, nil, err
	}
	return graphs, artifacts, nil
}
