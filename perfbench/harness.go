package main

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/basil"
	"repro/internal/benchharness"
	"repro/internal/types"
	"repro/internal/workload"
)

// Outcome of one transaction attempt, as seen at the public API.
const (
	outCommit  uint8 = iota
	outAbort         // basil.ErrAborted: serialization conflict, retried
	outTimeout       // basil.ErrTimeout: a phase starved, retried
	outOther         // any other error (workload.ErrWorkloadAbort included)
)

func outcomeOf(err error) uint8 {
	switch {
	case err == nil:
		return outCommit
	case errors.Is(err, basil.ErrAborted):
		return outAbort
	case errors.Is(err, basil.ErrTimeout):
		return outTimeout
	default:
		return outOther
	}
}

// maxAttempts is when a transaction counts as starved: the retry limit
// basil.Client.Run applies.
const maxAttempts = 50

// txRec follows one offered transaction across its attempts. Times are
// offsets from the run's epoch. Only the goroutine executing the
// transaction writes it; the run reads it after that goroutine is done.
type txRec struct {
	due      time.Duration // intended arrival (open loop) or first attempt's Begin
	lastEnd  time.Duration // end of the latest attempt
	done     time.Duration // commit return; 0 until committed
	backoff  time.Duration // time between attempts, summed
	attempts int
	last     uint8 // outcome of the latest attempt
	dropped  bool  // open loop: the arrival found the queue full
}

func (r *txRec) committed() bool { return r.attempts > 0 && r.last == outCommit }

// failed reports a transaction that never committed for a reason other
// than the run ending: dropped at arrival, starved, or left with an
// unknown or erroneous outcome.
func (r *txRec) failed() bool {
	switch {
	case r.dropped:
		return true
	case r.attempts == 0 || r.last == outCommit:
		return false
	case r.attempts >= maxAttempts:
		return true
	default:
		return r.last != outAbort
	}
}

// feed is the workload's transaction stream. One rng seeded from the
// workload seed draws every transaction in order, so the i-th
// transaction handed out is the same on every run with that seed,
// whichever session takes it; the rng the load engine passes is unused.
// Each transaction is wrapped so its attempts are attributed to its
// txRec.
type feed struct {
	gen   workload.Generator
	epoch time.Time

	// mu guards rng and recs: Next runs on every session's goroutine.
	mu   sync.Mutex
	rng  *rand.Rand
	recs []*txRec
}

func newFeed(gen workload.Generator, seed int64, epoch time.Time) *feed {
	return &feed{gen: gen, epoch: epoch, rng: rand.New(rand.NewSource(seed))}
}

// Name implements workload.Generator.
func (f *feed) Name() string { return f.gen.Name() }

// Populate implements workload.Generator.
func (f *feed) Populate(load func(key string, value []byte)) { f.gen.Populate(load) }

// Next implements workload.Generator.
func (f *feed) Next(*rand.Rand) workload.TxnFunc {
	fn, _ := f.draw()
	return fn
}

// draw returns the stream's next transaction and its record.
func (f *feed) draw() (workload.TxnFunc, *txRec) {
	rec := &txRec{due: -1}
	f.mu.Lock()
	fn := f.gen.Next(f.rng)
	f.recs = append(f.recs, rec)
	f.mu.Unlock()
	return workload.TxnFunc{Name: fn.Name, Body: func(tx workload.Tx) error {
		t, ok := tx.(*timedTx)
		if !ok {
			return fn.Body(tx)
		}
		t.rec = rec
		t.bodyErr = fn.Body(t)
		return t.bodyErr
	}}, rec
}

// records returns every transaction drawn so far.
func (f *feed) records() []*txRec {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*txRec(nil), f.recs...)
}

// interval is one timed call, as offsets from the run's epoch.
type interval struct{ start, end time.Duration }

// attempt is one Begin..Commit/Abort.
type attempt struct {
	interval
	out uint8
}

// timedSys is the benchmark's benchharness.System over a basil.Cluster:
// it hands out sessions built during set-up and times every call into
// the public API. It adds no instrumentation inside the program.
type timedSys struct {
	cl       *basil.Cluster
	sessions []*session

	mu   sync.Mutex // guards next
	next int
}

// Name implements benchharness.System.
func (s *timedSys) Name() string { return "Basil" }

// Load implements benchharness.System.
func (s *timedSys) Load(key string, value []byte) { s.cl.Load(key, value) }

// NewSession implements benchharness.System, handing out the sessions
// set-up created in order.
func (s *timedSys) NewSession() benchharness.Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessions[s.next]
	s.next++
	return sess
}

// Close implements benchharness.System.
func (s *timedSys) Close() { s.cl.Close() }

// session is one client. Its logs are written only by the goroutine
// driving it and read after that goroutine has finished.
type session struct {
	c        *basil.Client
	epoch    time.Time
	attempts []attempt
	reads    []interval
	commits  []interval
	metas    []*types.TxMeta // committed transactions
	unknown  []*types.TxMeta // Commit failed other than by abort: outcome undecided
	okCommit int             // Commit calls that returned nil
}

func (s *session) now() time.Duration { return time.Since(s.epoch) }

// Begin implements benchharness.Session.
func (s *session) Begin() benchharness.SysTx {
	return &timedTx{s: s, begin: s.now(), t: s.c.Begin()}
}

// timedTx times one attempt's calls into basil.Txn.
type timedTx struct {
	s       *session
	t       *basil.Txn
	rec     *txRec
	begin   time.Duration
	bodyErr error
}

func (t *timedTx) Read(key string) ([]byte, error) {
	start := t.s.now()
	v, err := t.t.Read(key)
	t.s.reads = append(t.s.reads, interval{start, t.s.now()})
	return v, err
}

func (t *timedTx) Write(key string, value []byte) { t.t.Write(key, value) }

func (t *timedTx) Commit() error {
	start := t.s.now()
	err := t.t.Commit()
	end := t.s.now()
	t.s.commits = append(t.s.commits, interval{start, end})
	switch outcomeOf(err) {
	case outCommit:
		t.s.okCommit++
		t.s.metas = append(t.s.metas, t.t.Meta())
	case outAbort:
	default:
		t.s.unknown = append(t.s.unknown, t.t.Meta())
	}
	t.finish(end, err)
	return err
}

func (t *timedTx) Abort() {
	t.t.Abort()
	t.finish(t.s.now(), t.bodyErr)
}

func (t *timedTx) finish(end time.Duration, err error) {
	out := outcomeOf(err)
	t.s.attempts = append(t.s.attempts, attempt{interval{t.begin, end}, out})
	r := t.rec
	if r.attempts == 0 {
		if r.due < 0 {
			r.due = t.begin
		}
	} else {
		r.backoff += t.begin - r.lastEnd
	}
	r.attempts++
	r.lastEnd = end
	r.last = out
	if out == outCommit {
		r.done = end
	}
}

// openLoop offers the feed's transactions at the given arrival offsets
// (from the epoch) and executes them on the sessions. Latency is charged
// from the intended arrival, so a stall shows in every transaction that
// arrives behind it. A transaction that finds queueCap arrivals already
// waiting is dropped and counted as failed. Aborted attempts retry with
// jittered exponential backoff, as benchharness.Run does. lag receives,
// per arrival, how late the generator handed it over.
//
// benchharness.Run serves the closed loop; scenario.OpenLoad is not used
// here because it reports neither per-arrival due times (needed for the
// median and the generator lag) nor a measure window inside the run.
func openLoop(sys *timedSys, f *feed, due []time.Duration, seed int64) (lag []time.Duration) {
	const queueCap = 256 // far above the backlog a checkpoint stall leaves; a full queue means overload
	type job struct {
		fn  workload.TxnFunc
		rec *txRec
	}
	jobs := make(chan job, queueCap)
	var wg sync.WaitGroup
	for i, sess := range sys.sessions {
		rng := rand.New(rand.NewSource(seed + int64(i+1)*7919))
		wg.Add(1)
		go func(sess *session) {
			defer wg.Done()
			for j := range jobs {
				backoff := 200 * time.Microsecond
				for {
					tx := sess.Begin()
					err := j.fn.Body(tx)
					if err == nil {
						err = tx.Commit()
					} else {
						tx.Abort()
					}
					if out := outcomeOf(err); out == outCommit || out == outOther || j.rec.attempts >= maxAttempts {
						break
					}
					time.Sleep(backoff + time.Duration(rng.Int63n(int64(backoff))))
					if backoff < 10*time.Millisecond {
						backoff *= 2
					}
				}
			}
		}(sess)
	}
	lag = make([]time.Duration, 0, len(due))
	for _, d := range due {
		if wait := d - time.Since(f.epoch); wait > 0 {
			time.Sleep(wait)
		}
		fn, rec := f.draw()
		rec.due = d
		lag = append(lag, time.Since(f.epoch)-d)
		select {
		case jobs <- job{fn, rec}:
		default:
			rec.dropped = true
		}
	}
	close(jobs)
	wg.Wait()
	return lag
}

// arrivals returns n Poisson arrival offsets spread over [start,
// start+span): a Poisson process conditioned on its count is n uniform
// points, sorted. Fixing the count keeps the offered load identical
// across seeds; only when each arrival comes varies.
func arrivals(rng *rand.Rand, start, span time.Duration, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = start + time.Duration(rng.Int63n(int64(span)))
	}
	slices.Sort(out)
	return out
}
