package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"sync"
	"testing"

	"cutfit/internal/algorithms"
	"cutfit/internal/partition"
)

// frameRecorder wraps a Transport and keeps every superstep frame that
// crosses it, broadcast and reduce alike.
type frameRecorder struct {
	Transport
	mu     sync.Mutex
	frames [][]byte
}

func (r *frameRecorder) Step(ctx context.Context, url, runID string, frame []byte) ([]byte, error) {
	resp, err := r.Transport.Step(ctx, url, runID, frame)
	r.mu.Lock()
	r.frames = append(r.frames, frame, resp)
	r.mu.Unlock()
	return resp, err
}

// capturedFrames runs every wire algorithm distributed on a 2-worker
// cluster and returns the frames that crossed the wire.
func capturedFrames(tb testing.TB) [][]byte {
	tb.Helper()
	pool, _ := startCluster(tb, 2)
	rec := &frameRecorder{Transport: pool.tr}
	pool.tr = rec
	g := hubAndChain(6, 8)
	pg := mustPartition(tb, g, partition.RandomVertexCut(), 4)
	for _, name := range wireNames() {
		alg, err := algorithms.Lookup(name)
		if err != nil {
			tb.Fatal(err)
		}
		p, err := alg.Params(g, 3)
		if err != nil {
			tb.Fatal(err)
		}
		if _, _, err := Run(context.Background(), pool, pg, name, p); err != nil {
			tb.Fatal(err)
		}
	}
	return rec.frames
}

// encodeReduceFrame re-encodes parsed reduce-frame slabs through the
// worker's reduceFrameBuilder.
func encodeReduceFrame(step, valSize int, parts []framePart) []byte {
	b := newReduceFrameBuilder(step, valSize)
	pair := 4 + valSize
	for _, fp := range parts {
		b.beginPart(fp.part, fp.scanned, fp.visited, fp.emitted, fp.cost)
		for off := 0; off < len(fp.pairs); off += pair {
			b.pairPrefix(int32(binary.LittleEndian.Uint32(fp.pairs[off:])))
			b.buf = append(b.buf, fp.pairs[off+4:off+pair]...)
		}
		b.endPart()
	}
	return b.bytes()
}

// FuzzParseFrame drives parseFrame with arbitrary bytes as both a
// BroadcastFrame (CFDB) and a ReduceFrame (CFDR), at 8- and 16-byte
// values: it must never panic, and every frame it accepts must re-encode
// to the identical bytes, so no two wire forms parse to the same frame.
func FuzzParseFrame(f *testing.F) {
	for _, frame := range capturedFrames(f) {
		f.Add(frame, false)
		f.Add(frame, true)
	}
	// The wire table has no 16-byte message type, so add a wide reduce
	// frame by hand.
	wide := newReduceFrameBuilder(3, 16)
	wide.beginPart(1, 5, 6, 2, 1.5)
	wide.pairPrefix(0)
	wide.buf = append(wide.buf, bytes.Repeat([]byte{0xAB}, 16)...)
	wide.endPart()
	f.Add(wide.bytes(), true)
	f.Add([]byte(nil), false)

	f.Fuzz(func(t *testing.T, frame []byte, wide bool) {
		valSize := 8
		if wide {
			valSize = 16
		}
		if step, parts, err := parseFrame(frame, magicBroadcast, valSize, false); err == nil {
			if got := encodeBroadcastFrame(step, parts); !bytes.Equal(got, frame) {
				t.Fatalf("accepted broadcast frame re-encodes differently:\n got %x\nwant %x", got, frame)
			}
		}
		if step, parts, err := parseFrame(frame, magicReduce, valSize, true); err == nil {
			if got := encodeReduceFrame(step, valSize, parts); !bytes.Equal(got, frame) {
				t.Fatalf("accepted reduce frame re-encodes differently:\n got %x\nwant %x", got, frame)
			}
		}
	})
}
