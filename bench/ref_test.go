package main

import (
	"math"
	"testing"
)

// TestRefChildSteadyOver10kCalls drives the reference child through ten
// thousand kernel calls (at the small size, so the test stays short;
// the code path and the retention pattern are the frozen kernel's) and
// checks the two things its role depends on: its heap does not grow,
// so call 10 000 costs what call 100 did, and its checksum never
// changes, so the work cannot have been optimised away.
func TestRefChildSteadyOver10kCalls(t *testing.T) {
	p, err := startRef(refSmoke)
	if err != nil {
		t.Fatal(err)
	}
	want := newRefState().run(refSmoke)
	var early uint64
	for i := 0; i < 10_000; i++ {
		r, err := p.call()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if r.checksum != want {
			t.Fatalf("call %d: checksum %x, want %x", i, r.checksum, want)
		}
		if r.ns <= 0 {
			t.Fatalf("call %d: kernel time %d ns", i, r.ns)
		}
		if i == 100 {
			if r, err = p.command(refCollect); err != nil {
				t.Fatal(err)
			}
			early = r.heapAlloc
		}
	}
	r, err := p.command(refCollect)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.close(); err != nil {
		t.Fatal(err)
	}
	if late := r.heapAlloc; late > early+1<<20 {
		t.Errorf("child's live heap grew from %d to %d bytes over 10k calls", early, late)
	}
}

// TestRefChecksumFixed runs the frozen-size kernel twice in this process
// and through a child: one checksum, so every invocation does the same
// work.
func TestRefChecksumFixed(t *testing.T) {
	s := newRefState()
	first, second := s.run(refFull), s.run(refFull)
	if first != second || first == 0 {
		t.Fatalf("kernel checksums %x then %x", first, second)
	}
	p, err := startRef(refFull)
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.call()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.close(); err != nil {
		t.Fatal(err)
	}
	if r.checksum != first {
		t.Errorf("child checksum %x, in-process %x", r.checksum, first)
	}
}

// TestSampleValueCancelsMachineDrift injects a 1.3× slowdown into both
// the job and the reference, as a busy neighbour does, and checks the
// sample value stays within 2 %: whole-block slowdowns, and one that
// arrives halfway through the block.
func TestSampleValueCancelsMachineDrift(t *testing.T) {
	jobs := []float64{540, 552, 548, 561, 545}
	const ref = 20.4
	base := sampleValue(jobs, ref, ref)
	slow := make([]float64, len(jobs))
	for i, ms := range jobs {
		slow[i] = ms * 1.3
	}
	if got := sampleValue(slow, ref*1.3, ref*1.3); math.Abs(got/base-1) > 0.02 {
		t.Errorf("uniform 1.3x slowdown moved the sample from %v to %v", base, got)
	}
	// The neighbour arrives mid-block: the first half of the jobs ran at
	// full speed, the second half at 1/1.3; the reference saw full speed
	// before and the slowdown after.
	for i, ms := range jobs {
		slow[i] = ms
		if i >= len(jobs)/2 {
			slow[i] = ms * 1.3
		}
	}
	if got := sampleValue([]float64{mean(slow)}, ref, ref*1.3); math.Abs(got/sampleValue([]float64{mean(jobs)}, ref, ref)-1) > 0.05 {
		t.Errorf("mid-block slowdown moved the sample to %v", got)
	}
}
