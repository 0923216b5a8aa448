package core

import (
	"context"
	"hash/fnv"
	"io"
	"sync"

	"aibench/internal/parallel"
	"aibench/internal/telemetry"
)

// DeriveSeed deterministically derives a per-benchmark seed from the
// suite-level base seed and the benchmark id (FNV-1a over the id, mixed
// with the base). Because the derivation depends only on (base, id) —
// never on scheduling order — a suite run produces identical sessions
// whether benchmarks execute serially or across any number of workers.
func DeriveSeed(base int64, id string) int64 {
	h := fnv.New64a()
	io.WriteString(h, id)
	const golden = uint64(0x9e3779b97f4a7c15) // 2^64/phi, spreads nearby bases
	s := int64((h.Sum64() ^ (uint64(base) * golden)) & 0x7fffffffffffffff)
	return s
}

// syncWriter serializes concurrent session logs onto one underlying
// writer. Each session emits whole lines per Write call, so guarding
// individual Writes keeps interleaved progress lines intact.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// each is the one suite loop every run kind goes through: it runs body
// once per benchmark of bs, at most width at a time (<= 0 means
// GOMAXPROCS; 1 runs them in plan order), each under its own span of
// root — the benchmark ids give concurrent siblings the distinct names
// the telemetry canonicalization contract requires. The record a body
// returns for bs[i] is filed in res as the i-th and then goes to sink;
// a body that measured nothing returns the zero Record. It knows
// nothing of run kinds: a kind that skips benchmarks hands it a shorter
// list. Sink calls are serialized, in completion order. The first
// error — a body's or the sink's — is latched and returned, and
// cancels the bodies still running; what those had measured by then is
// still filed and delivered, so the sink sees every record res holds.
// Once ctx is done (or a body panics; the panic is re-raised here) no
// further benchmark launches.
func each(ctx context.Context, bs []*Benchmark, width int, root *telemetry.Span, sink func(Record) error, res *RunResult,
	body func(ctx context.Context, b *Benchmark, span *telemetry.Span) (Record, error)) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var mu sync.Mutex
	var firstErr error
	parallel.ForCtx(ctx, width, len(bs), func(i int) {
		b := bs[i]
		span := root.Child(b.ID)
		rec, err := body(ctx, b, span)
		span.End()
		mu.Lock()
		defer mu.Unlock()
		if err == nil && rec.Kind != "" {
			res.put(i, rec)
			if sink != nil {
				err = sink(rec)
			}
		}
		if err != nil && firstErr == nil {
			firstErr = err
			cancel()
		}
	})
	return firstErr
}
