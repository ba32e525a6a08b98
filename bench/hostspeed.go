package main

import (
	"fmt"
	"sort"
	"time"
)

// The machine this benchmark runs on does not hold still: with nothing
// else running in the VM, every CPU-bound workload here was seen to slow
// by 10–35 % for seconds to minutes and recover, with process CPU per wall
// second unchanged — the cores themselves ran slower (a shared host).
// Medians of unpaired runs, which is what the driver compares, cannot
// absorb that. So while a run measures something, a sampler goroutine
// times a small fixed reference kernel ten times a second, and every
// time-valued metric of CPU-bound work is scaled by kernelNominal / (the
// kernel's typical time during the measurement): it reads as if taken
// while the host ran at its nominal speed. The sampler costs about 2 % of
// the two cores, the same on every commit. Raw values are printed beside
// the table.

const (
	// kernelNominal is the reference kernel's time on the baseline machine
	// while a workload runs and the host is undisturbed. It only fixes the
	// scale of the reported numbers; any constant would compare parent and
	// change equally well.
	kernelNominal = 1900 * time.Microsecond
	sampleEvery   = 100 * time.Millisecond
	// Below this many samples the measurement was too short to judge the
	// host by, and times are reported as measured.
	minSamples  = 8
	kernelWords = 1 << 20 // 4 MB: beyond L2, so memory stalls count
)

// referenceKernel is a fixed mix of dependent loads, a streaming pass and
// register arithmetic, about the mix the engines under test are made of,
// short enough (about a millisecond) that the scheduler does not preempt it.
func referenceKernel(next []uint32) uint32 {
	var i, acc uint32
	for n := 0; n < kernelWords/64; n++ { // pointer chase
		i = next[i]
	}
	for _, v := range next[:kernelWords/4] { // streaming sum
		acc += v
	}
	x := uint32(2463534242)
	for n := 0; n < kernelWords/4; n++ { // xorshift32
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
	}
	return i + acc + x
}

// speedSampler times the reference kernel periodically until finished.
type speedSampler struct {
	stop chan struct{}
	done chan []float64 // kernel times in seconds
}

func startSampler() *speedSampler {
	s := &speedSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	// One cycle through all words with a stride coprime to the length, so
	// each load of the chase depends on the last and lands on a new page.
	buf := make([]uint32, kernelWords)
	const stride = 618_033
	for i := range buf {
		buf[i] = uint32((i + stride) % kernelWords)
	}
	go func() {
		var samples []float64
		var sink uint32
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				_ = sink
				s.done <- samples
				return
			case <-tick.C:
				t0 := time.Now()
				sink += referenceKernel(buf)
				samples = append(samples, time.Since(t0).Seconds())
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the factor raw times are multiplied
// by, with a line describing it. The kernel's typical time is the mean of
// the middle half of the samples: a sample that was preempted half-way, or
// that hit a burst, does not count.
func (s *speedSampler) finish(what string) (speed float64, note string) {
	close(s.stop)
	samples := <-s.done
	if len(samples) < minSamples {
		return 1, fmt.Sprintf("%s: too short to sample the host's speed (%d samples): times are as measured", what, len(samples))
	}
	sort.Float64s(samples)
	mid := samples[len(samples)/4 : len(samples)-len(samples)/4]
	sum := 0.0
	for _, v := range mid {
		sum += v
	}
	typical := sum / float64(len(mid))
	speed = kernelNominal.Seconds() / typical
	return speed, fmt.Sprintf("%s: host speed %.3f of nominal (reference kernel %.3f ms typical, p10 %.3f p50 %.3f p90 %.3f mean %.3f over %d samples, nominal %.1f ms)",
		what, speed, typical*1e3, percentile(samples, 10)*1e3, percentile(samples, 50)*1e3, percentile(samples, 90)*1e3,
		mean(samples)*1e3, len(samples), kernelNominal.Seconds()*1e3)
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
