// Package dist runs Pregel supersteps across processes: a coordinator that
// owns graph registration, partition→worker placement and the superstep
// barrier, plus N workers that each own a subset of partitions and execute
// the compute scans.
//
// The split follows the engine's Exchanger seam (pregel.RunExchanged):
// superstep 0, message application and loop control stay in the
// coordinator's engine — literally the same code the local path runs —
// while broadcast, compute and reduce travel over the wire. Workers run the
// scan through pregel.ShardCompute, which shares the engine's computePart,
// so candidate edges are visited in the identical ascending order and
// float64 message combines happen in the identical sequence: a distributed
// run is bit-identical to pregel.Run on the same assignment.
//
// Shards ship whole as internal/snap containers (KindShard),
// content-addressed by graph fingerprint plus a topology checksum: a worker
// that already holds the key gets nothing, any other gets the full shard.
// A Grow or Shrink generation ships full too — under the vertex-cut
// strategies a small batch shifts the local indices of almost every
// partition, so a per-partition delta would carry nearly the whole shard
// anyway. The wire codec is a plain HTTP/1.1+JSON/binary-frame transport
// behind the Transport interface, so a gRPC transport can slot in without
// touching the coordinator or worker logic. docs/DISTRIBUTED.md documents the protocol;
// the ProtocolMessages table in protocol.go is its single source of truth.
package dist
