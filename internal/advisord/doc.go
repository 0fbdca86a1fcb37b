// Package advisord is the placement-advisory daemon: a long-running
// service that lets many clients — separate processes, CI runs,
// thousands of simulated fleet nodes — share the expensive
// Profile/Analyze artifacts and advisor reports the library otherwise
// recomputes per invocation.
//
// It has two layers, each usable on its own, over the shared stage
// implementation and artifact cache of internal/stage:
//
//   - Server/Client: a wire protocol of length-prefixed JSON frames
//     over any net.Conn. Clients upload a profile (or stream
//     PEBS-style sample batches, or ask the server to profile a named
//     workload), then request advice; the server shards the heavy work
//     across a worker pool whose workers reuse engine.Pool simulator
//     state. Every artifact resolves through a sweep.Memo (once per
//     key in memory, a failed key forgotten so the next request
//     retries) over stage.Load (once per key on disk, when a
//     stage.Cache is configured).
//   - Loadgen: the self-benchmark harness behind cmd/advisord
//     -loadgen, which doubles as the end-to-end proof that fingerprints
//     are stable across processes: a daemon restart over the same cache
//     directory must serve every artifact from disk.
//
// Everything the daemon serves is byte-identical to the in-process
// path: a report from the wire equals Advise run locally, bit for bit.
package advisord
