package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"time"
)

// The reference kernel: a fixed piece of work whose time stands for
// "how fast is this machine right now". Job latency is reported as a
// multiple of it, so a neighbour that slows the whole sandbox by a third
// slows numerator and denominator alike. The mix mirrors what the
// program under test does — floating-point loops, a memory stream
// larger than the last-level cache share, allocation churn — and it
// imports nothing from the repository, so no change to the repository
// can move it. FROZEN: changing any constant below re-bases every
// job_p50_rel ever recorded.
const (
	refMatN       = 96      // naive refMatN×refMatN float64 matmul …
	refMatReps    = 10      // … this many times
	refStreamLen  = 2 << 20 // float64s: a 16 MB slice …
	refStreamStep = 8       // … walked one cache line at a time …
	refStreamReps = 3       // … this many times
	refAllocs     = 6000    // allocations of refAllocSize bytes …
	refAllocSize  = 4 << 10 // …
	refAllocKeep  = 8       // … keeping every eighth alive until the next call
)

// refEnv marks a process as the reference-kernel child.
const refEnv = "AIBENCH_BENCH_REF"

// refSize selects the kernel's size: the frozen one, or a tiny one for
// tests and -smoke runs that make no timing claims.
type refSize byte

const (
	refFull  refSize = 'f'
	refSmoke refSize = 's'
	// refCollect runs no kernel: the child collects its garbage and
	// reports its live heap, for the test that it does not grow.
	refCollect refSize = 'g'
)

// refState is the kernel's working set, allocated once per process.
type refState struct {
	a, b, c []float64
	stream  []float64
	kept    [][]byte
}

func newRefState() *refState {
	s := &refState{
		a:      make([]float64, refMatN*refMatN),
		b:      make([]float64, refMatN*refMatN),
		c:      make([]float64, refMatN*refMatN),
		stream: make([]float64, refStreamLen),
		kept:   make([][]byte, 0, refAllocs/refAllocKeep+1),
	}
	for i := range s.a {
		s.a[i] = float64(i%17) * 0.25
		s.b[i] = float64(i%13) * 0.5
	}
	for i := range s.stream {
		s.stream[i] = float64(i & 1023)
	}
	return s
}

// run executes the kernel once and returns a checksum over everything
// it computed, which the caller must consume so the compiler cannot
// drop the work. The checksum is the same on every call.
func (s *refState) run(size refSize) uint64 {
	n, matReps, streamLen, allocs := refMatN, refMatReps, refStreamLen, refAllocs
	if size == refSmoke {
		n, matReps, streamLen, allocs = 16, 1, 1<<13, 64
	}
	sum := 0.0
	for rep := 0; rep < matReps; rep++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				acc := 0.0
				for k := 0; k < n; k++ {
					acc += s.a[i*refMatN+k] * s.b[k*refMatN+j]
				}
				s.c[i*refMatN+j] = acc
			}
		}
		sum += s.c[(rep*37)%(n*n)]
	}
	for rep := 0; rep < refStreamReps; rep++ {
		for i := 0; i < streamLen; i += refStreamStep {
			sum += s.stream[i]
		}
	}
	for i := range s.kept {
		s.kept[i] = nil
	}
	s.kept = s.kept[:0]
	for i := 0; i < allocs; i++ {
		buf := make([]byte, refAllocSize)
		buf[i%refAllocSize] = byte(i)
		if i%refAllocKeep == 0 {
			s.kept = append(s.kept, buf)
		}
		sum += float64(buf[i%refAllocSize])
	}
	return math.Float64bits(sum)
}

// refReply is what the child answers per call.
type refReply struct {
	ns        int64  // time the kernel took, measured inside the child
	checksum  uint64 // see refState.run
	heapAlloc uint64 // the child's own heap, for the no-growth test
}

const refReplyLen = 24

// refChildMain serves kernel calls until its stdin closes: one command
// byte in (a refSize), one refReply out.
func refChildMain(in io.Reader, out io.Writer) error {
	s := newRefState()
	r := bufio.NewReader(in)
	var ms runtime.MemStats
	var reply [refReplyLen]byte
	for {
		cmd, err := r.ReadByte()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		var sum uint64
		start := time.Now()
		if refSize(cmd) == refCollect {
			runtime.GC()
		} else {
			sum = s.run(refSize(cmd))
		}
		ns := time.Since(start)
		runtime.ReadMemStats(&ms)
		binary.LittleEndian.PutUint64(reply[0:], uint64(ns))
		binary.LittleEndian.PutUint64(reply[8:], sum)
		binary.LittleEndian.PutUint64(reply[16:], ms.HeapAlloc)
		if _, err := out.Write(reply[:]); err != nil {
			return err
		}
	}
}

// refProc is the harness's handle on the reference child: a persistent
// single-threaded process of this binary, so the heap size and GC
// pacing of the program under test cannot change the kernel's speed.
type refProc struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
	size refSize
}

func startRef(size refSize) (*refProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("reference kernel: locating executable: %w", err)
	}
	cmd := exec.Command(exe, "ref")
	cmd.Env = append(os.Environ(), refEnv+"=1", "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("reference kernel: %w", err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("reference kernel: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("reference kernel: starting child: %w", err)
	}
	return &refProc{cmd: cmd, in: in, out: bufio.NewReader(out), size: size}, nil
}

// call runs the kernel once in the child.
func (p *refProc) call() (refReply, error) { return p.command(p.size) }

func (p *refProc) command(cmd refSize) (refReply, error) {
	if _, err := p.in.Write([]byte{byte(cmd)}); err != nil {
		return refReply{}, fmt.Errorf("reference kernel: %w", err)
	}
	var buf [refReplyLen]byte
	if _, err := io.ReadFull(p.out, buf[:]); err != nil {
		return refReply{}, fmt.Errorf("reference kernel: child died: %w", err)
	}
	return refReply{
		ns:        int64(binary.LittleEndian.Uint64(buf[0:])),
		checksum:  binary.LittleEndian.Uint64(buf[8:]),
		heapAlloc: binary.LittleEndian.Uint64(buf[16:]),
	}, nil
}

// refCallsPerGap is how many back-to-back kernel runs make one
// reference timing. A single 20 ms run samples the machine's speed at
// one instant and is itself jittery (its quartiles lie 13 % apart on
// this sandbox); the median of three cut the run-to-run spread of
// job_p50_rel by a third (6.1 % → 3.9 %, ten runs of every workload)
// and a fourth bought nothing more. FROZEN with the kernel.
const refCallsPerGap = 3

// refNominalMS is the reference timing on this sandbox when nothing
// else runs on it. setup_s is scaled by it so that it reads in seconds.
// FROZEN with the kernel.
const refNominalMS = 20.0

// gapMS is one reference timing in milliseconds: the median of
// refCallsPerGap kernel runs. Call it only while no job is in flight:
// the point is to time the machine, not the contention.
func (p *refProc) gapMS() (float64, error) {
	var ms [refCallsPerGap]float64
	for i := range ms {
		r, err := p.call()
		if err != nil {
			return 0, err
		}
		ms[i] = float64(r.ns) / 1e6
	}
	return median(ms[:]), nil
}

// close ends the child by closing its stdin and waits for it.
func (p *refProc) close() error {
	if err := p.in.Close(); err != nil {
		return fmt.Errorf("reference kernel: %w", err)
	}
	if err := p.cmd.Wait(); err != nil {
		return fmt.Errorf("reference kernel: child exit: %w", err)
	}
	return nil
}
