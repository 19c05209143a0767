package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"weak"

	"cutfit/internal/algorithms"
	"cutfit/internal/partition"
	"cutfit/internal/snap"
)

// postShard POSTs a shard container to route on srv and returns the status.
func postShard(t *testing.T, srv *httptest.Server, route string, body []byte) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, srv.URL+route, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderShardKey, "forged-key")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// reshard rebuilds a shard container with its meta and parts sections
// (section ids 1 and 4 of the KindShard layout) passed through edit,
// forging payloads EncodeShard cannot produce.
func reshard(t *testing.T, data []byte, edit func(meta, parts []byte)) []byte {
	t.Helper()
	c, err := snap.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	secs := make([][]byte, 5)
	for id := uint32(1); id <= 4; id++ {
		sec, ok := c.Section(id)
		if !ok {
			t.Fatalf("shard container lacks section %d", id)
		}
		secs[id] = bytes.Clone(sec)
	}
	edit(secs[1], secs[4])
	b := snap.NewBuilder(snap.KindShard)
	for id := uint32(1); id <= 4; id++ {
		b.Section(id, secs[id])
	}
	return b.Bytes()
}

// TestShardInstallRejectsDeltaShards: a worker answers 400 to any payload
// in the retired delta layout — a nonzero base or old-vertex meta word, or
// a part whose mode word is not 1 — and 404 on the retired delta route,
// so an older coordinator falls back instead of installing a wrong shard.
func TestShardInstallRejectsDeltaShards(t *testing.T) {
	worker := NewWorker()
	srv := httptest.NewServer(worker.Handler())
	defer srv.Close()
	pg := mustPartition(t, hubAndChain(6, 8), partition.RandomVertexCut(), 4)
	full := snap.EncodeShard(extractShard(pg, 0, 1))
	if code := postShard(t, srv, "/dist/v1/shards", full); code != http.StatusNoContent {
		t.Fatalf("valid shard: status %d, want 204", code)
	}

	golden, err := os.ReadFile("../snap/testdata/golden/shard-delta.snap")
	if err != nil {
		t.Fatal(err)
	}
	forged := map[string][]byte{
		"golden delta shard": golden,
		"base word": reshard(t, full, func(meta, _ []byte) {
			binary.LittleEndian.PutUint64(meta[8:], 0x1234)
		}),
		"old-vertex word": reshard(t, full, func(meta, _ []byte) {
			binary.LittleEndian.PutUint64(meta[32:], 3)
		}),
		"mode 0 (unchanged)": reshard(t, full, func(_, parts []byte) {
			binary.LittleEndian.PutUint32(parts[8:], 0)
		}),
		"mode 2 (append)": reshard(t, full, func(_, parts []byte) {
			binary.LittleEndian.PutUint32(parts[8:], 2)
		}),
	}
	for name, body := range forged {
		if code := postShard(t, srv, "/dist/v1/shards", body); code != http.StatusBadRequest {
			t.Errorf("%s: ShardInstall status %d, want 400", name, code)
		}
	}
	if code := postShard(t, srv, "/dist/v1/shards/delta", golden); code != http.StatusNotFound {
		t.Errorf("retired delta route: status %d, want 404", code)
	}
	if n := worker.NumShards(); n != 1 {
		t.Fatalf("worker holds %d shards after the rejected installs, want 1", n)
	}
}

// TestShardInstallRejectsRepeatedPartition: a shard listing one partition
// twice is a 400, not an install whose every step computes the partition
// twice and fails the run at the coordinator.
func TestShardInstallRejectsRepeatedPartition(t *testing.T) {
	worker := NewWorker()
	srv := httptest.NewServer(worker.Handler())
	defer srv.Close()
	pg := mustPartition(t, hubAndChain(6, 8), partition.RandomVertexCut(), 4)
	sp := extractShard(pg, 0, 1)
	sp.Parts[2] = sp.Parts[1] // four parts, as the topology has; one twice
	if code := postShard(t, srv, "/dist/v1/shards", snap.EncodeShard(sp)); code != http.StatusBadRequest {
		t.Fatalf("repeated partition: status %d, want 400", code)
	}
	if n := worker.NumShards(); n != 0 {
		t.Fatalf("worker installed %d shards, want 0", n)
	}
}

// TestStepBodyCappedAtLargestFrame: a SuperstepExchange body is capped at
// the largest broadcast frame the bound run can legally receive. A frame
// of exactly that size is served, one byte more is a 413, and the run's
// next valid step still succeeds.
func TestStepBodyCappedAtLargestFrame(t *testing.T) {
	worker := NewWorker()
	srv := httptest.NewServer(worker.Handler())
	defer srv.Close()
	pool := NewPool([]string{srv.URL})
	pg := mustPartition(t, hubAndChain(6, 8), partition.RandomVertexCut(), 3)
	ctx := context.Background()
	key := shardKey(pg.G, topoSum(pg), pg.NumParts, 0, 1)
	if err := pool.prepareWorker(ctx, 0, key, pg); err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{Run: "cap-test", Shard: key, Algorithm: "pagerank", Iters: 5, ResetProb: algorithms.DefaultResetProb}
	if err := pool.tr.StartRun(ctx, srv.URL, spec); err != nil {
		t.Fatal(err)
	}

	// The largest legal frame: every owned partition, one pair per local
	// vertex, 8-byte PageRank values.
	var parts []framePart
	for p, part := range pg.Parts {
		fp := framePart{part: p, n: len(part.LocalVerts)}
		for local := range part.LocalVerts {
			fp.pairs = binary.LittleEndian.AppendUint32(fp.pairs, uint32(local))
			fp.pairs = f64Codec{}.Append(fp.pairs, 0.5)
		}
		parts = append(parts, fp)
	}
	largest := encodeBroadcastFrame(1, parts)
	ws, _ := worker.shard(key)
	if bound := ws.maxBroadcastFrame(8); int64(len(largest)) != bound {
		t.Fatalf("largest legal frame is %d bytes, bound says %d", len(largest), bound)
	}
	if _, err := pool.tr.Step(ctx, srv.URL, spec.Run, largest); err != nil {
		t.Fatalf("frame at the bound: %v", err)
	}

	over := encodeBroadcastFrame(2, parts)
	over = append(over, 0)
	resp, err := http.Post(srv.URL+"/dist/v1/runs/"+spec.Run+"/step", "application/octet-stream", bytes.NewReader(over))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("frame one byte over the bound: status %d, want 413", resp.StatusCode)
	}
	if _, err := pool.tr.Step(ctx, srv.URL, spec.Run, encodeBroadcastFrame(2, nil)); err != nil {
		t.Fatalf("valid step after the oversized body: %v", err)
	}
}

// TestPoolDoesNotPinTopology: once a run returns, nothing in the pool keeps
// the partitioned graph it ran on alive.
func TestPoolDoesNotPinTopology(t *testing.T) {
	pool, _ := startCluster(t, 2)
	pg := mustPartition(t, randomGraph(3, 40, 160), partition.RandomVertexCut(), 4)
	if _, _, err := PageRank(context.Background(), pool, pg, 3, algorithms.DefaultResetProb); err != nil {
		t.Fatal(err)
	}
	wp := weak.Make(pg)
	pg = nil
	for i := 0; i < 3 && wp.Value() != nil; i++ {
		runtime.GC()
	}
	if wp.Value() != nil {
		t.Fatal("the pool still references the partitioned graph after the run")
	}
	runtime.KeepAlive(pool)
}
