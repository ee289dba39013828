// Command basilvet is the project-invariant static analyzer: it machine-
// checks the semantic conventions the system's correctness rests on but
// that `go vet` and the race detector cannot see. Like tools/doccheck and
// tools/linkcheck it is stdlib-only (go/parser + go/types with a
// module-aware source importer) and runs from `make check` as
// `invariant-check`.
//
// Passes and finding codes (each documented in ARCHITECTURE.md §
// "Machine-checked invariants"):
//
//	BV001 lock-discipline      — a blocking or externalizing call
//	       (transport Send/SendAll, wal Append/Checkpoint/Close,
//	       cryptoutil signing and pool dispatch, file Sync, channel
//	       sends, time.Sleep, WaitGroup.Wait) is reachable while a
//	       mutex is held, found by an intra-package call-graph walk
//	       seeded from mu.Lock()/Unlock pairs and the *Locked naming
//	       convention.
//	BV002 log-before-externalize — in package replica, promise state
//	       (voteReady, decisionLogged, finalized) may only be set true
//	       in a function that also appends the matching WAL record, and
//	       no reply may be sent before the log call in that function.
//	BV003 error-hygiene        — an error returned by a wal, store,
//	       transport, or os call is discarded without justification.
//	BV004 goroutine-hygiene    — a goroutine launched from a type that
//	       has a Close method is neither WaitGroup-tracked nor bound to
//	       a stop/closed signal, so Close cannot join or drain it.
//	BV005 metrics-tax          — a clock read (time.Now) that exists
//	       only to feed a latency histogram is not gated on a live
//	       registry, so disabled instrumentation still pays for it
//	       (the rule the -0.8%/<2% overhead bound depends on).
//	BV006 metric-names         — a metric is registered outside the
//	       package's single definition site (a *Metrics* function or a
//	       metrics*.go file), where duplicate-name panics and
//	       divergence from the measured overhead hide.
//	BV007 unbounded-intake     — a function on the receive path (name
//	       contains deliver/dispatch/enqueue/push/admit/intake) grows a
//	       struct-held slice or map with no visible capacity check
//	       (cap-ish identifier or len(...) comparison) in the same
//	       function — a queue an untrusted peer can pump until OOM.
//	BV008 admin-handler isolation — an HTTP handler (the
//	       http.HandlerFunc parameter shape, declared or inline)
//	       acquires Replica.mu; admin/debug endpoints must snapshot
//	       through a Replica accessor and serve the copy, never hold
//	       protocol locks while serving.
//	BV009 orphan-package       — a package under an internal/
//	       directory has no non-test importer anywhere in the tree
//	       Go lets import it: dead code its own tests keep alive.
//	BV010 unreferenced-export  — an exported func or method of an
//	       internal/ package is named as an identifier in no Go file
//	       of that tree, tests and nested modules included. Methods
//	       named in an interface type, or after a stdlib interface
//	       method (String, Error, ServeHTTP, ...), are exempt.
//
// Suppression: a finding line (or the line above it) may carry
// `//nolint:basilvet — <justification>`. The justification is mandatory;
// a bare nolint is itself reported (BV000) and suppresses nothing.
//
// Scope notes, by design: function literals are not treated as executing
// at their creation site (reply closures run on the batcher), `go`
// statements do not block their launcher, and sync.Cond.Wait releases
// the mutex it guards — none of these seed BV001. Dataflow for BV005 is
// per-function. These approximations are documented here so a clean run
// is read as "the checked discipline holds", not "no bug exists".
//
// Usage:
//
//	basilvet [-json] PKGDIR...   (a trailing /... walks recursively)
//
// Exit status 1 when findings remain, 2 on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array (scriptable output)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: basilvet [-json] PKGDIR... (dir or dir/...)")
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	dirs, err := expandPatterns(flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "basilvet: %v\n", err)
		os.Exit(2)
	}
	loader, err := newLoader()
	if err != nil {
		fmt.Fprintf(os.Stderr, "basilvet: %v\n", err)
		os.Exit(2)
	}
	var findings []Finding
	for _, dir := range dirs {
		pkg, err := loader.load(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "basilvet: %s: %v\n", dir, err)
			os.Exit(2)
		}
		if pkg == nil {
			continue // no non-test Go files
		}
		findings = append(findings, analyze(pkg)...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Code < b.Code
	})
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "basilvet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Code, f.Msg)
		}
		if len(findings) == 0 {
			fmt.Printf("basilvet: %d packages clean\n", len(dirs))
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
