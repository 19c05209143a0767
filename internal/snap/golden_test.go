package snap

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"cutfit/internal/graph"
	"cutfit/internal/metrics"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
)

// The golden corpus freezes format version 1 on disk: committed containers
// that every future build must keep decoding to bit-identical artifacts.
// `go test ./internal/snap -run TestGolden -update` regenerates the files
// goldenFiles encodes — only do that together with a FormatVersion bump
// (and keep the old version's goldens decodable), per the version policy
// in the package doc. store.snap is not among them: it is the legacy
// bundle whose topology record embeds a full KindTopology container, which
// nothing encodes any more. It stays committed, read-only, so every build
// keeps restoring it (internal/store's TestGoldenStoreRestore).
// shard-delta.snap is not among them either: it is a delta shard from the
// retired per-partition delta layout, committed as an input every build
// must reject (TestGoldenRejectsDeltaShard).

var update = flag.Bool("update", false, "rewrite the golden snapshot files")

const goldenDir = "testdata/golden"

// goldenEdges is the fixed graph behind every golden artifact. Never
// change it: the committed bytes depend on it.
var goldenEdges = []graph.Edge{
	{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3},
	{Src: 3, Dst: 0}, {Src: 3, Dst: 4}, {Src: 4, Dst: 5}, {Src: 5, Dst: 6},
	{Src: 6, Dst: 4}, {Src: 6, Dst: 7}, {Src: 7, Dst: 8}, {Src: 8, Dst: 9},
	{Src: 9, Dst: 7}, {Src: 9, Dst: 0}, {Src: 2, Dst: 7}, {Src: 5, Dst: 1},
	{Src: 8, Dst: 3}, {Src: 4, Dst: 9}, {Src: 0, Dst: 1}, {Src: 9, Dst: 9},
}

const (
	goldenParts = 4
	goldenLabel = "golden"
)

func goldenGraph() *graph.Graph {
	return graph.FromEdges(append([]graph.Edge(nil), goldenEdges...))
}

// goldenArtifacts computes the full artifact set the goldens freeze, from
// scratch, with the 2D strategy at 4 partitions.
func goldenArtifacts(t testing.TB) (*graph.Graph, *partition.Assignment, *pregel.PartitionedGraph, *metrics.Result) {
	t.Helper()
	g := goldenGraph()
	a, err := partition.Assign(g, partition.EdgePartition2D(), goldenParts)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := metrics.FromAssignment(a)
	if err != nil {
		t.Fatal(err)
	}
	return g, a, pg, m
}

// goldenShard cuts the shard of a one-worker cluster (the worker owns
// every partition) the way the distributed coordinator does.
func goldenShard(pg *pregel.PartitionedGraph) *ShardPayload {
	g := pg.G
	sp := &ShardPayload{GraphFP: g.Fingerprint(), NumParts: pg.NumParts, NumVerts: g.NumVertices(), Verts: g.Vertices(), OutDeg: g.OutDegrees()}
	for p, part := range pg.Parts {
		sh := ShardPart{Index: p, LocalVerts: slices.Clone(part.LocalVerts)}
		for j := 0; j < part.NumEdges(); j++ {
			s, d := part.EdgeAt(j)
			sh.EdgeSrc = append(sh.EdgeSrc, s)
			sh.EdgeDst = append(sh.EdgeDst, d)
		}
		sp.Parts = append(sp.Parts, sh)
	}
	return sp
}

// goldenBlockGraph is the golden graph on the block tier: one 64-edge
// block.
func goldenBlockGraph(g *graph.Graph) *graph.Graph {
	bb := graph.NewBlockBuilder(64)
	bb.Append(g.Edges(), nil)
	return graph.FromBlocks(bb.Finish())
}

// goldenFiles encodes every re-encodable golden file from first
// principles.
func goldenFiles(t testing.TB) map[string][]byte {
	t.Helper()
	g, a, pg, m := goldenArtifacts(t)
	var bg bytes.Buffer
	if err := WriteBlockGraph(&bg, goldenBlockGraph(g)); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"graph.snap":      EncodeGraph(g),
		"assignment.snap": EncodeAssignment(a),
		"metrics.snap":    EncodeMetrics(m, g, "2D"),
		// persist.snap is the bundle Store.Persist writes for a cache
		// holding the golden tuple's three stages (internal/store checks
		// it byte for byte): the topology record is key-only.
		"persist.snap": EncodeStore(
			[]StoreGraph{{Labels: []string{goldenLabel}, Data: EncodeGraph(g)}},
			[]StoreArtifact{
				{GraphIndex: 0, Stage: StageAssignment, StrategyKey: "2D", NumParts: goldenParts, Data: EncodeAssignment(a)},
				{GraphIndex: 0, Stage: StageMetrics, StrategyKey: "2D", NumParts: goldenParts, Data: EncodeMetrics(m, g, "2D")},
				{GraphIndex: 0, Stage: StageTopology, StrategyKey: "2D", NumParts: goldenParts},
			},
		),
		"shard.snap":      EncodeShard(goldenShard(pg)),
		"blockgraph.snap": bg.Bytes(),
	}
}

func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatalf("golden file missing (regenerate with -update after a deliberate format change): %v", err)
	}
	return data
}

// TestGoldenCompat is the CI compatibility gate: the committed golden
// containers must still encode exactly (any byte drift is an accidental
// format break) and decode to artifacts bit-identical to a from-scratch
// computation.
func TestGoldenCompat(t *testing.T) {
	files := goldenFiles(t)
	if *update {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(goldenDir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, want := range files {
		if got := readGolden(t, name); !bytes.Equal(got, want) {
			t.Errorf("%s: committed golden differs from freshly encoded bytes — the format changed; bump FormatVersion and add a new golden set", name)
		}
	}

	g, a, pg, m := goldenArtifacts(t)

	dg, err := DecodeGraph(readGolden(t, "graph.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dg.Edges(), g.Edges()) || !reflect.DeepEqual(dg.Vertices(), g.Vertices()) {
		t.Error("golden graph decodes to different content")
	}

	da, err := DecodeAssignment(readGolden(t, "assignment.snap"), g, "2D")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(da.PIDs, a.PIDs) || !reflect.DeepEqual(da.EdgesPerPart, a.EdgesPerPart) || da.Strategy != a.Strategy {
		t.Error("golden assignment decodes to a different artifact")
	}

	dm, err := DecodeMetrics(readGolden(t, "metrics.snap"), g, "2D")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dm, m) {
		t.Errorf("golden metrics decode to a different artifact:\n got %+v\nwant %+v", dm, m)
	}

	for _, name := range []string{"store.snap", "persist.snap"} {
		sg, sa, err := DecodeStore(readGolden(t, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(sg) != 1 || len(sa) != 3 || sg[0].Labels[0] != goldenLabel || sa[2].Stage != StageTopology {
			t.Errorf("%s decodes to %d graphs / %d artifacts", name, len(sg), len(sa))
		}
	}

	if got, err := DecodeShard(readGolden(t, "shard.snap")); err != nil {
		t.Fatalf("shard.snap: %v", err)
	} else if want := goldenShard(pg); !reflect.DeepEqual(got, want) {
		t.Errorf("shard.snap decodes to a different payload:\n got %+v\nwant %+v", got, want)
	}

	data := readGolden(t, "blockgraph.snap")
	bg, err := OpenBlockGraphAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bg.BlockBacked() || bg.Fingerprint() != g.Fingerprint() ||
		!reflect.DeepEqual(bg.Vertices(), g.Vertices()) || !reflect.DeepEqual(bg.Edges(), g.Edges()) {
		t.Error("golden block graph decodes to different content")
	}
}

// TestGoldenRejectsDeltaShard keeps the retired delta shard layout out:
// shard-delta.snap is a delta shard (nonzero base and old-vertex words,
// unchanged and append part modes) that an older coordinator could send,
// and every build must refuse to decode it.
func TestGoldenRejectsDeltaShard(t *testing.T) {
	if _, err := DecodeShard(readGolden(t, "shard-delta.snap")); err == nil {
		t.Fatal("shard-delta.snap decoded; delta shards must be rejected")
	}
}

// goldenDecoders maps every golden file that must decode to the typed
// decoder for its kind.
func goldenDecoders() map[string]func([]byte) error {
	g := goldenGraph()
	return map[string]func([]byte) error{
		"graph.snap":      func(d []byte) error { _, err := DecodeGraph(d); return err },
		"assignment.snap": func(d []byte) error { _, err := DecodeAssignment(d, g, "2D"); return err },
		"metrics.snap":    func(d []byte) error { _, err := DecodeMetrics(d, g, "2D"); return err },
		"store.snap":      func(d []byte) error { _, _, err := DecodeStore(d); return err },
		"persist.snap":    func(d []byte) error { _, _, err := DecodeStore(d); return err },
		"shard.snap":      func(d []byte) error { _, err := DecodeShard(d); return err },
		"blockgraph.snap": func(d []byte) error {
			_, err := OpenBlockGraphAt(bytes.NewReader(d), int64(len(d)))
			return err
		},
	}
}

// TestGoldenRejectsMutations is the acceptance bar for decoder robustness:
// every single-byte flip and every truncation of every golden file must be
// rejected — never mis-decoded — by the typed decoder for its kind.
func TestGoldenRejectsMutations(t *testing.T) {
	for name, decode := range goldenDecoders() {
		data := readGolden(t, name)
		if err := decode(data); err != nil {
			t.Fatalf("%s: pristine golden rejected: %v", name, err)
		}
		for i := range data {
			mutated := append([]byte(nil), data...)
			mutated[i] ^= 0xFF
			if decode(mutated) == nil {
				t.Fatalf("%s: flip at byte %d/%d decoded successfully", name, i, len(data))
			}
		}
		for n := 0; n < len(data); n++ {
			if decode(data[:n]) == nil {
				t.Fatalf("%s: truncation to %d/%d bytes decoded successfully", name, n, len(data))
			}
		}
	}
}
