package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"

	"aibench/internal/models"
	"aibench/internal/telemetry"
	"aibench/internal/tensor"
)

// Process runs each replica rank as a child of this binary re-executed
// in worker mode, exchanging gradient and buffer frames over the
// child's stdin/stdout pipes. The engine's grain decomposition and
// fixed-order all-reduce are untouched — the frame codec round-trips
// float64 bit patterns — so results are bitwise-identical to the Local
// backend; what changes is the failure domain: a replica that panics,
// OOMs, or is killed takes down one child process and surfaces as an
// error on its own benchmark, never as a crash of the suite.
type Process struct {
	workers int
}

// NewProcess returns a process-isolation backend with the given worker
// count (minimum 1).
func NewProcess(workers int) *Process {
	if workers < 1 {
		workers = 1
	}
	return &Process{workers: workers}
}

// Name implements Backend.
func (p *Process) Name() string { return "process" }

// Workers implements Backend.
func (p *Process) Workers() int { return p.workers }

// Open spawns one worker child per rank (this binary re-executed with
// WorkerEnv set), sends each its hello, and validates the specs the
// children constructed. The context bounds the children's lifetime —
// cancellation kills them — and carries the run: its kernels, which
// the hello hands on, and its counters, of which the hello asks each
// child to keep its own and Close folds the children's into the run's.
// The factory is unused: children rebuild the workload from benchID on
// their side of the pipe, which is exactly what makes the isolation
// real.
func (p *Process) Open(ctx context.Context, benchID string, _ models.Factory, seed int64) (Group, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("dist: process backend: locating executable: %v", err)
	}
	run := tensor.RunFrom(ctx)
	g := &processGroup{
		procs:    make([]*workerProc, 0, p.workers),
		outs:     make([]PhaseOut, p.workers),
		quals:    make([]float64, p.workers),
		counters: run.Counters,
	}
	h := hello{BenchID: benchID, Kernel: run.Kernels.Name(), Seed: seed, Workers: p.workers, Counters: run.Counters != nil}
	for rank := 0; rank < p.workers; rank++ {
		cmd := exec.CommandContext(ctx, exe, "worker")
		cmd.Env = append(os.Environ(), WorkerEnv+"=1")
		cmd.Stderr = os.Stderr
		stdin, perr := cmd.StdinPipe()
		if perr == nil {
			var stdout io.ReadCloser
			if stdout, perr = cmd.StdoutPipe(); perr == nil {
				if perr = cmd.Start(); perr == nil {
					g.procs = append(g.procs, &workerProc{
						cmd: cmd,
						in:  stdin,
						bw:  bufio.NewWriterSize(stdin, 1<<16),
						br:  bufio.NewReaderSize(stdout, 1<<16),
					})
					continue
				}
			}
		}
		g.kill()
		return nil, fmt.Errorf("dist: process backend: spawning replica %d: %v", rank, perr)
	}
	if err := g.handshake(h); err != nil {
		g.kill()
		return nil, err
	}
	return g, nil
}

// handshake sends every child its hello (h with the child's rank) and
// takes the group's spec from their replies: each must decode to a
// workload shape, and all to the same one.
func (g *processGroup) handshake(h hello) error {
	for rank, wp := range g.procs {
		h.Rank = rank
		if err := g.write(rank, wp, frameHello, encodeHello(h)); err != nil {
			return err
		}
	}
	specs := make([]GroupSpec, len(g.procs))
	for rank, wp := range g.procs {
		payload, err := g.recv(rank, wp, replyTo[frameHello])
		if err != nil {
			return err
		}
		if specs[rank], err = decodeSpec(payload); err != nil {
			return fmt.Errorf("dist: process backend: replica %d: %v", rank, err)
		}
	}
	g.spec = specs[0]
	return validateSpecs(specs)
}

// workerProc is one child: its process handle, the buffered frame
// pipes to it, and the buffer its replies are read into (see readFrame
// for how long a payload lives).
type workerProc struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	bw   *bufio.Writer
	br   *bufio.Reader
	rbuf []byte
}

// processGroup drives the worker children. Every collective sends the
// request to all ranks first (children overlap their compute) and then
// reads the replies replyTo declares rank by rank; a one-way request is
// done once it is sent. Any pipe failure marks the group broken:
// further collectives fail fast and Close kills whatever is left.
type processGroup struct {
	spec     GroupSpec
	procs    []*workerProc
	outs     []PhaseOut
	quals    []float64
	counters *telemetry.Counters // the run's; nil when it is not traced
	req      []byte              // the per-step request body, rebuilt in place
	broken   bool
	closed   bool
}

// recv reads one frame from a rank and requires the given type. A
// closed pipe or an error frame is translated into the per-benchmark
// error the session records as the failure reason; any other type is
// out of sequence — a reply to nothing the parent asked, or none to
// what it did.
func (g *processGroup) recv(rank int, wp *workerProc, want byte) ([]byte, error) {
	typ, payload, err := g.recvAny(rank, wp)
	if err != nil {
		return nil, err
	}
	if typ != want {
		g.broken = true
		return nil, fmt.Errorf("dist: process backend: replica %d: frame type %d out of sequence (expected %d)", rank, typ, want)
	}
	return payload, nil
}

func (g *processGroup) recvAny(rank int, wp *workerProc) (byte, []byte, error) {
	typ, payload, err := readFrame(wp.br, &wp.rbuf)
	if err != nil {
		g.broken = true
		// The pipe ended, between frames or inside one: the child is gone.
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, fmt.Errorf("dist: process backend: replica %d exited mid-run (killed or crashed)", rank)
		}
		return 0, nil, fmt.Errorf("dist: process backend: replica %d: %v", rank, err)
	}
	if typ == frameError {
		g.broken = true
		fr := &frameReader{b: payload}
		return 0, nil, fmt.Errorf("dist: process backend: replica %d: %s", rank, fr.str())
	}
	return typ, payload, nil
}

// write sends one request frame to a rank. A write fails only when the
// child is gone, so the failure is reported as what the child left
// behind, never as the pipe's own error: the group is marked broken,
// the child killed, and its pipe read to the end — the error frame it
// sent, or else the exited-mid-run error.
func (g *processGroup) write(rank int, wp *workerProc, typ byte, payload []byte) error {
	if writeFrame(wp.bw, typ, payload) == nil {
		return nil
	}
	g.broken = true
	_ = wp.cmd.Process.Kill()
	for {
		if _, _, err := g.recvAny(rank, wp); err != nil {
			return err
		}
	}
}

// send writes one request to every rank. For a one-way request
// (BeginEpoch, ApplyPhase) that is the whole collective: a rank that
// fails in it reports so in place of its next reply.
func (g *processGroup) send(typ byte, payload []byte) error {
	if g.broken || g.closed {
		return fmt.Errorf("dist: process backend: replica group is down")
	}
	for rank, wp := range g.procs {
		if err := g.write(rank, wp, typ, payload); err != nil {
			return err
		}
	}
	return nil
}

// collective sends one request to every rank and then collects each
// rank's reply — the type replyTo declares — through per-rank handler
// calls; a handler's error is reported against its rank.
func (g *processGroup) collective(typ byte, payload []byte, handle func(rank int, payload []byte) error) error {
	if err := g.send(typ, payload); err != nil {
		return err
	}
	for rank, wp := range g.procs {
		body, err := g.recv(rank, wp, replyTo[typ])
		if err != nil {
			return err
		}
		if err := handle(rank, body); err != nil {
			g.broken = true
			return fmt.Errorf("dist: process backend: replica %d: %v", rank, err)
		}
	}
	return nil
}

func (g *processGroup) Spec() GroupSpec { return g.spec }

func (g *processGroup) BeginEpoch() error { return g.send(frameBeginEpoch, nil) }

func (g *processGroup) ComputePhase(p int) ([]PhaseOut, error) {
	g.req = appendU32(g.req[:0], uint32(p))
	err := g.collective(frameCompute, g.req, func(rank int, body []byte) error {
		return decodePhaseOut(body, &g.outs[rank], g.spec.GroupLen[p], g.spec.BufLen)
	})
	if err != nil {
		return nil, err
	}
	return g.outs, nil
}

func (g *processGroup) ApplyPhase(p int, grad, buf []float64) error {
	g.req = appendU32(g.req[:0], uint32(p))
	g.req = appendF64s(g.req, grad)
	g.req = appendF64s(g.req, buf)
	return g.send(frameApply, g.req)
}

func (g *processGroup) Quality() ([]float64, error) {
	err := g.collective(frameQuality, nil, func(rank int, body []byte) error {
		fr := &frameReader{b: body}
		g.quals[rank] = fr.f64()
		return fr.err
	})
	if err != nil {
		return nil, err
	}
	return g.quals, nil
}

// Close shuts the children down. On the clean path each child gets a
// close frame, replies with its kernel-op counts — validated, then
// merged into the run's before its tracer snapshots them — and is
// reaped; on the broken path whatever is left is killed. Idempotent.
func (g *processGroup) Close() error {
	if g.closed {
		return nil
	}
	g.closed = true
	if g.broken {
		g.kill()
		return nil
	}
	var first error
	for rank, wp := range g.procs {
		err := func() error {
			if werr := g.write(rank, wp, frameClose, nil); werr != nil {
				return werr
			}
			body, rerr := g.recv(rank, wp, replyTo[frameClose])
			if rerr != nil {
				return rerr
			}
			ops, derr := decodeClosed(body)
			if derr != nil {
				return fmt.Errorf("dist: process backend: replica %d: %v", rank, derr)
			}
			g.counters.Merge(ops)
			return nil
		}()
		if err != nil && first == nil {
			first = err
		}
		if err != nil {
			_ = wp.cmd.Process.Kill()
		}
		_ = wp.in.Close()
		if werr := wp.cmd.Wait(); werr != nil && first == nil && err == nil {
			first = fmt.Errorf("dist: process backend: replica %d: %v", rank, werr)
		}
	}
	return first
}

// kill tears down every child unconditionally (broken groups, failed
// opens). Wait errors are expected — the children were killed.
func (g *processGroup) kill() {
	for _, wp := range g.procs {
		_ = wp.cmd.Process.Kill()
		_ = wp.in.Close()
		_ = wp.cmd.Wait()
	}
}
