package dist

import (
	"bufio"
	"fmt"
	"io"

	"aibench/internal/models"
	"aibench/internal/telemetry"
	"aibench/internal/tensor"
)

// WorkerEnv marks a process as a dist worker child. The Process
// backend sets it when spawning, and the CLI (and the dist package's
// own test binary) dispatches into WorkerMain when it is present —
// argv alone cannot be trusted because `go test` owns the test
// binary's flags.
const WorkerEnv = "AIBENCH_DIST_WORKER"

// WorkerMain is the replica side of the process backend: one
// sequential loop over length-prefixed request frames on (r, w),
// normally the child's stdin/stdout. It constructs exactly one replica
// from the first frame, a hello, and then serves requests — answering
// each with the reply replyTo declares, or with nothing for a one-way
// request — until a close frame or EOF (the parent died — exit quietly,
// the parent is not listening).
//
// Failures are containment boundaries, not crashes: a bad benchmark
// id or kernel, a construction error, a frame that is no
// request or arrives out of sequence, or a panic inside the model's own
// code is reported to the parent as an error frame and the worker
// exits, so the parent can fail that one benchmark and keep the suite
// running.
func WorkerMain(r io.Reader, w io.Writer) (err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	bw := bufio.NewWriterSize(w, 1<<16)

	// A panic anywhere below — almost always inside the benchmark's
	// own train step — becomes an error frame so the parent sees a
	// reason, not just a closed pipe.
	defer func() {
		if p := recover(); p != nil {
			msg := fmt.Sprintf("replica panicked: %v", p)
			if werr := writeFrame(bw, frameError, appendStr(nil, msg)); werr != nil {
				err = werr
				return
			}
			err = fmt.Errorf("dist: %s", msg)
		}
	}()

	fail := func(msg string) error {
		if werr := writeFrame(bw, frameError, appendStr(nil, msg)); werr != nil {
			return werr
		}
		return fmt.Errorf("dist: worker: %s", msg)
	}

	var rep *replica                  // nil until the hello
	var rbuf, wbuf []byte             // frame bodies, reused across steps
	var applyGrad, applyBuf []float64 // reused across steps
	for {
		typ, payload, rerr := readFrame(br, &rbuf)
		if rerr != nil {
			if rerr == io.EOF {
				return nil
			}
			return rerr
		}
		reply, ok := replyTo[typ]
		switch {
		case !ok:
			return fail(fmt.Sprintf("frame type %d is not a request", typ))
		case rep == nil && typ != frameHello:
			return fail(fmt.Sprintf("expected hello frame, got type %d", typ))
		case rep != nil && typ == frameHello:
			return fail(fmt.Sprintf("frame type %d is a second hello", typ))
		}
		fr := &frameReader{b: payload}
		var body []byte
		switch typ {
		case frameHello:
			h, herr := decodeHello(payload)
			if herr != nil {
				return fail(fmt.Sprintf("bad hello frame: %v", herr))
			}
			if rep, herr = h.open(); herr != nil {
				return fail(herr.Error())
			}
			if body, herr = encodeSpec(rep.spec); herr != nil { // a NaN or infinite target
				return fail(fmt.Sprintf("encoding spec: %v", herr))
			}
		case frameBeginEpoch:
			rep.trainer.BeginEpoch()
		case frameCompute:
			p := fr.u32()
			if fr.err != nil || uint64(p) >= uint64(len(rep.spec.Phases)) {
				return fail(fmt.Sprintf("bad compute frame (phase %d)", p))
			}
			wbuf = encodePhaseOut(wbuf[:0], rep.computePhase(int(p)))
			body = wbuf
		case frameApply:
			p := fr.u32()
			applyGrad = fr.f64s(applyGrad)
			applyBuf = fr.f64s(applyBuf)
			if fr.err != nil || uint64(p) >= uint64(len(rep.spec.Phases)) {
				return fail(fmt.Sprintf("bad apply frame (phase %d)", p))
			}
			rep.apply(int(p), applyGrad, applyBuf)
		case frameQuality:
			wbuf = appendF64(wbuf[:0], rep.quality())
			body = wbuf
		case frameClose:
			// An untraced run's replica has no counters and replies with
			// no counts.
			body = encodeClosed(rep.counters.Snapshot().Kernel)
		}
		if reply != 0 {
			if werr := writeFrame(bw, reply, body); werr != nil {
				return werr
			}
		}
		if typ == frameClose {
			return nil
		}
	}
}

// open builds the replica a hello asks for, placed under the child's
// half of the run: the kernel the hello names — resolved by the rule
// the parent's NewRunner used — and, when the parent's run
// is traced, counters of the child's own, which see exactly the calls a
// local replica's would and go home in the close reply.
func (h hello) open() (*replica, error) {
	k, err := tensor.ResolveKernels(h.Kernel)
	if err != nil {
		return nil, err
	}
	run := &tensor.Run{Kernels: k}
	if h.Counters {
		run.Counters = new(telemetry.Counters)
	}
	for _, e := range models.AllEntries() {
		if e.ID == h.BenchID {
			return newReplica(e.Factory, h.Seed, h.Rank, h.Workers, run)
		}
	}
	return nil, fmt.Errorf("unknown benchmark id %q", h.BenchID)
}
