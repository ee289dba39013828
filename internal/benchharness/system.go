// Package benchharness drives the paper's evaluation (§6). One
// transaction executor (Executor: retry under jittered exponential
// backoff, outcome accounting) runs every load in the repo, fed by Run's
// closed loop — the paper's methodology, latency from first invocation
// to commit — or by internal/scenario's open loop. The package adapts
// each system under test (Basil, TAPIR, TxHotstuff, TxBFT-SMaRt), drives
// Byzantine client populations (FaultyLoad), and defines one experiment
// per figure/table.
package benchharness

import (
	"time"

	"repro/basil"
	"repro/internal/tapir"
	"repro/internal/txbase"
	"repro/internal/workload"
)

// SysTx is one system-level transaction attempt.
type SysTx interface {
	workload.Tx
	Commit() error
	Abort()
}

// Session is one closed-loop client's connection.
type Session interface {
	Begin() SysTx
}

// System is a running deployment under test.
type System interface {
	Name() string
	Load(key string, value []byte)
	NewSession() Session
	Close()
}

// beginner adapts a client's Begin method to Session. Every system's
// transaction type implements SysTx itself; Basil's also carries
// Meta() *types.TxMeta, which internal/scenario discovers by interface
// assertion for serializability auditing.
type beginner[T SysTx] func() T

// Begin implements Session.
func (b beginner[T]) Begin() SysTx { return b() }

// --- Basil adapter ---

// BasilSystem adapts basil.Cluster to the harness. It tracks the clients
// it hands out so aggregate protocol stats (fast-path share, Overloaded
// replies) can be reported after a run.
type BasilSystem struct {
	C       *basil.Cluster
	Label   string
	clients []*basil.Client
}

// Name implements System.
func (s *BasilSystem) Name() string {
	if s.Label != "" {
		return s.Label
	}
	return "Basil"
}

// Load implements System.
func (s *BasilSystem) Load(key string, value []byte) { s.C.Load(key, value) }

// NewSession implements System.
func (s *BasilSystem) NewSession() Session {
	c := s.C.NewClient()
	s.clients = append(s.clients, c)
	return beginner[*basil.Txn](c.Begin)
}

// Close implements System.
func (s *BasilSystem) Close() { s.C.Close() }

// FastPathShare returns the fraction of finished Prepare phases that took
// the single-round-trip fast path, summed over all sessions.
func (s *BasilSystem) FastPathShare() float64 {
	var fast, slow uint64
	for _, c := range s.clients {
		fast += c.Stats().FastPathTaken.Load()
		slow += c.Stats().SlowPathTaken.Load()
	}
	if fast+slow == 0 {
		return 0
	}
	return float64(fast) / float64(fast+slow)
}

// Overloads sums the explicit Overloaded (load-shed) replies the
// sessions consumed — the scenario harness's admission accounting.
func (s *BasilSystem) Overloads() uint64 {
	var n uint64
	for _, c := range s.clients {
		n += c.Stats().Overloads.Load()
	}
	return n
}

// --- TAPIR adapter ---

// TapirSystem adapts tapir.Cluster.
type TapirSystem struct{ C *tapir.Cluster }

// Name implements System.
func (s *TapirSystem) Name() string { return "TAPIR" }

// Load implements System.
func (s *TapirSystem) Load(key string, value []byte) { s.C.Load(key, value) }

// NewSession implements System.
func (s *TapirSystem) NewSession() Session { return beginner[*tapir.Txn](s.C.NewClient().Begin) }

// Close implements System.
func (s *TapirSystem) Close() { s.C.Close() }

// --- ordered-log baseline adapter ---

// TxBaseSystem adapts txbase.Cluster (PBFT or HotStuff substrate).
type TxBaseSystem struct{ C *txbase.Cluster }

// Name implements System.
func (s *TxBaseSystem) Name() string { return s.C.Kind().String() }

// Load implements System.
func (s *TxBaseSystem) Load(key string, value []byte) { s.C.Load(key, value) }

// NewSession implements System.
func (s *TxBaseSystem) NewSession() Session { return beginner[*txbase.Txn](s.C.NewClient().Begin) }

// Close implements System.
func (s *TxBaseSystem) Close() { s.C.Close() }

// Populate loads a generator's initial database into a system.
func Populate(sys System, gen workload.Generator) {
	gen.Populate(sys.Load)
	// Give replica-side load a moment to settle (loads are synchronous in
	// all current systems, but keep the barrier for future transports).
	time.Sleep(time.Millisecond)
}
