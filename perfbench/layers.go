package main

import (
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/basil"
	pm "repro/internal/metrics"
	"repro/internal/trace"
)

// counters is one reading of every counter the program exposes, summed
// over the run's clients and replicas. The window's figures are the
// difference of two readings.
type counters struct {
	fast, slow, recoveries, readRetries, overloads uint64 // client Stats
	depWaits, shed, signed                         uint64 // replica Stats
	walAppends, walSyncs                           uint64 // WALStats
	registry                                       pm.Snapshot

	cpu          time.Duration // process user+sys
	allocBytes   uint64        // runtime /gc/heap/allocs:bytes
	gcCycles     uint64        // runtime /gc/cycles/total:gc-cycles
	policyCalls  uint64        // sends seen by the Local link policy
	wall         time.Duration // offset from the run's epoch
	wallUnixNano int64
	// Host CPU ticks from /proc/stat: all, and those stolen by the
	// hypervisor (0 where unavailable).
	hostTicks, stealTicks uint64
}

// readCounters takes one reading. The per-replica registry snapshots are
// merged by metric name and labels, so histograms sum across replicas.
func readCounters(cl *basil.Cluster, sessions []*session, sends func() uint64, epoch time.Time) counters {
	var c counters
	for _, s := range sessions {
		st := s.c.Stats()
		c.fast += st.FastPathTaken.Load()
		c.slow += st.SlowPathTaken.Load()
		c.recoveries += st.Recoveries.Load()
		c.readRetries += st.ReadRetries.Load()
		c.overloads += st.Overloads.Load()
	}
	var snaps []pm.Snapshot
	for s := 0; s < cl.Shards(); s++ {
		for i := 0; i < cl.ReplicaCount(); i++ {
			r := cl.Replica(s, i)
			c.depWaits += r.Stats.DepWaits.Load()
			c.shed += r.Stats.Shed.Load()
			c.signed += r.Stats.SigsSigned.Load()
			w := r.WALStats()
			c.walAppends += w.Appends
			c.walSyncs += w.Syncs
			snaps = append(snaps, r.Metrics().Snapshot())
		}
	}
	c.registry = mergeSnapshots(snaps)
	c.cpu = processCPU()
	c.allocBytes, c.gcCycles = runtimeCounters()
	if sends != nil {
		c.policyCalls = sends()
	}
	c.hostTicks, c.stealTicks = hostCPUTicks()
	c.wall = time.Since(epoch)
	c.wallUnixNano = time.Now().UnixNano()
	return c
}

// mergeSnapshots sums registry snapshots metric by metric.
func mergeSnapshots(snaps []pm.Snapshot) pm.Snapshot {
	var out pm.Snapshot
	counters := map[string]int{}
	hists := map[string]int{}
	for _, s := range snaps {
		for _, c := range s.Counters {
			k := c.Name + "{" + c.Labels + "}"
			if i, ok := counters[k]; ok {
				out.Counters[i].Value += c.Value
				continue
			}
			counters[k] = len(out.Counters)
			out.Counters = append(out.Counters, c)
		}
		for _, h := range s.Hists {
			k := h.Name + "{" + h.Labels + "}"
			if i, ok := hists[k]; ok {
				out.Hists[i].Hist = addHist(out.Hists[i].Hist, h.Hist)
				continue
			}
			hists[k] = len(out.Hists)
			out.Hists = append(out.Hists, h)
		}
	}
	return out
}

// addHist sums two histogram snapshots bucket-wise.
func addHist(a, b pm.HistSnapshot) pm.HistSnapshot {
	out := pm.HistSnapshot{Count: a.Count + b.Count, SumNanos: a.SumNanos + b.SumNanos}
	i, j := 0, 0
	for i < len(a.Buckets) || j < len(b.Buckets) {
		switch {
		case j == len(b.Buckets) || (i < len(a.Buckets) && a.Buckets[i].LowerNanos < b.Buckets[j].LowerNanos):
			out.Buckets = append(out.Buckets, a.Buckets[i])
			i++
		case i == len(a.Buckets) || b.Buckets[j].LowerNanos < a.Buckets[i].LowerNanos:
			out.Buckets = append(out.Buckets, b.Buckets[j])
			j++
		default:
			bk := a.Buckets[i]
			bk.Count += b.Buckets[j].Count
			out.Buckets = append(out.Buckets, bk)
			i++
			j++
		}
	}
	return out
}

// counter returns a registry counter's value (0 when absent).
func counter(s pm.Snapshot, name, labels string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name && c.Labels == labels {
			return c.Value
		}
	}
	return 0
}

// hist returns a registry histogram (empty when absent).
func hist(s pm.Snapshot, name, labels string) pm.HistSnapshot {
	for _, h := range s.Hists {
		if h.Name == name && h.Labels == labels {
			return h.Hist
		}
	}
	return pm.HistSnapshot{}
}

// hostCPUTicks reads the host-wide CPU tick total and its steal share.
func hostCPUTicks() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealPct is the share of host CPU time the hypervisor took between a
// and c: time the benchmark's CPUs were not running at all.
func (c counters) stealPct(a counters) float64 {
	if c.hostTicks <= a.hostTicks {
		return 0
	}
	return 100 * float64(c.stealTicks-a.stealTicks) / float64(c.hostTicks-a.hostTicks)
}

// processCPU returns the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeCounters returns the bytes allocated and GC cycles run since
// the process started.
func runtimeCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// liveHeap returns the heap the last GC found live.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// sampler polls gauges through the measure window: the live heap always,
// and in traced runs the replicas' held transaction states and store
// versions (the latter walk replica state, so untraced runs skip them).
type sampler struct {
	stop chan struct{}
	wg   sync.WaitGroup

	// Written by the sampling goroutine, read after Stop returns.
	heapPeak, txStatesPeak, versionsPeak uint64
}

func startSampler(cl *basil.Cluster, deep bool) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for n := 0; ; n++ {
			s.heapPeak = max(s.heapPeak, liveHeap())
			if deep && n%10 == 0 {
				for i := 0; i < cl.ReplicaCount(); i++ {
					r := cl.Replica(0, i)
					s.txStatesPeak = max(s.txStatesPeak, uint64(r.TxStateCount()))
					s.versionsPeak = max(s.versionsPeak, uint64(r.Store().StatsSnapshot().Versions))
				}
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// Stop ends sampling and waits for the sampling goroutine to exit.
func (s *sampler) Stop() {
	close(s.stop)
	s.wg.Wait()
}

// spanLog accumulates the tracer's spans by name. The tracer keeps spans
// in a bounded ring; harvest copies out the spans recorded since the
// previous harvest, so the ring only has to hold one harvest interval.
type spanLog struct {
	tr   *trace.Tracer
	prev map[uint64]bool // span ids seen in the previous harvest
	// spans by name: end (UnixNano) and duration.
	byName map[string][]spanRec
	// lost is set when a harvest found the ring full of unseen spans:
	// spans may have been overwritten before they were read.
	lost bool
}

type spanRec struct{ end, dur int64 }

func newSpanLog(tr *trace.Tracer) *spanLog {
	return &spanLog{tr: tr, byName: map[string][]spanRec{}}
}

func (l *spanLog) harvest() {
	spans := l.tr.Spans()
	seen := make(map[uint64]bool, len(spans))
	fresh := 0
	for _, s := range spans {
		seen[s.SpanID] = true
		if l.prev[s.SpanID] {
			continue
		}
		fresh++
		l.byName[s.Name] = append(l.byName[s.Name], spanRec{s.End, s.End - s.Start})
	}
	if l.prev != nil && fresh >= traceRing {
		l.lost = true
	}
	l.prev = seen
}

// window returns the durations (ns) of name's spans that ended in [from, to].
func (l *spanLog) window(name string, from, to int64) []float64 {
	var out []float64
	for _, s := range l.byName[name] {
		if s.end >= from && s.end <= to {
			out = append(out, float64(s.dur))
		}
	}
	return out
}
