package main

import (
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark reports times at a fixed machine speed. On the shared
// virtual machine README.md describes, the CPU time of the same BSA calls
// swung by ±20% over minutes while a pure arithmetic loop held within
// ±5%: the host's caches and memory are shared with other guests, whose
// load comes and goes, and longer runs do not average that out. So every
// timed op is divided by the CPU time of a fixed, memory-bound reference
// computation run just before it and multiplied by that computation's
// nominal time. This narrows the spread between runs but does not remove
// it; README.md gives the measurements. The reference is the benchmark's
// own code and touches no memory of the Go heap, so no change to the
// program can move it.

// refNominal is the reference computation's typical thread CPU time on
// the machine README.md describes (run medians of 15–19 ms): an op
// reported as t ms took t/refNominal times as long as the reference
// computation next to it.
const refNominal = 16 * time.Millisecond

const (
	// refWords is the pointer-chase table's length: 32 MiB of uint32.
	// refSteps steps touch about 74,000 of its cache lines (4.5 MiB, over
	// twice a per-core L2), so nearly every step misses the core's own
	// caches and waits on the memory system the host shares between
	// guests, whatever the work before left in them. (A 4 MiB table,
	// timed warm with half of it in the L2, tracked the engine's swings
	// half as well.)
	refWords = 8 << 20
	refSteps = 80_000
	// refKeys is the sort buffer's length.
	refKeys = 20_000
)

// speedRef is the reference computation's state, allocated outside the
// Go heap so it changes neither the collector's pacing nor the live heap
// the benchmark reports.
type speedRef struct {
	next []uint32
	keys []float64
}

var ref = newSpeedRef()

func newSpeedRef() *speedRef {
	mem, err := syscall.Mmap(-1, 0, refWords*4+refKeys*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(err)
	}
	r := &speedRef{
		next: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), refWords),
		keys: unsafe.Slice((*float64)(unsafe.Pointer(&mem[refWords*4])), refKeys),
	}
	// Sattolo's shuffle with a fixed generator: one cycle through every
	// entry, so the chase visits the whole table in a fixed order.
	for i := range r.next {
		r.next[i] = uint32(i)
	}
	x := uint64(1)
	for i := refWords - 1; i > 0; i-- {
		x = lcg(x)
		j := int(x>>33) % i
		r.next[i], r.next[j] = r.next[j], r.next[i]
	}
	return r
}

func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

// sink keeps the reference computation's result live.
var sink uint64

// run performs the reference computation once: a dependent pointer chase
// through the table, then filling and sorting a buffer of floats.
func (r *speedRef) run() {
	j := uint32(0)
	for i := 0; i < refSteps; i++ {
		j = r.next[j]
	}
	x := uint64(j)
	for i := range r.keys {
		x = lcg(x)
		r.keys[i] = float64(x >> 11)
	}
	slices.Sort(r.keys)
	sink += uint64(r.keys[refKeys/2])
}

// measure runs the reference computation on a locked thread and returns
// that thread's CPU time for it, so neither other goroutines, the
// collector nor time the host gives the CPU to other guests count.
func (r *speedRef) measure() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	r.run()
	return threadCPU() - c0
}

// scale converts a duration measured while the reference computation
// took refMS milliseconds to the nominal speed.
func scale(d time.Duration, refMS float64) time.Duration {
	return time.Duration(float64(d) * ms(refNominal) / refMS)
}

// Linux's CPU-time clocks. getrusage would not do for the reference: for
// the calling thread it reports the run time accounted at the last
// scheduler tick, so a 16 ms computation read as 16.0 ms or 20.0 ms.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// threadCPU returns the calling thread's CPU time so far.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }

// cpuTime returns the CPU time the process has used so far: user and
// system, all threads. Library calls and setups are timed with it rather
// than the clock because on a shared virtual machine the clock also
// counts the time the host gives the machine's CPUs to other guests
// (steal): an op's wall minus CPU time tracked the steal accrued during
// it (correlation 0.88, up to a third of the op).
func cpuTime() time.Duration { return cpuClock(clockProcessCPU) }

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // both clocks exist on every Linux the benchmark runs on
	}
	return time.Duration(ts.Nano())
}

// refBracket is how many times the reference computation runs on each
// side of a setup, which it cannot interleave with.
const refBracket = 5

// measureRefs runs the reference computation n times and returns each
// run's time in ms.
func measureRefs(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = ms(ref.measure())
	}
	return out
}
