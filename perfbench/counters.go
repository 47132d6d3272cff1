package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// workCounts are the exact work counts of one pass. Equal code and inputs
// give equal counts on every host; a change that only makes the
// simulator faster must leave them, and the digest, unchanged.
type workCounts struct {
	ops             int64 // workload operations generated
	runs            int64 // simulations attempted
	capped          int64 // simulations stopped by their time cap
	events          int64 // simulation events (settled runs)
	makespanNS      int64 // summed makespan of settled runs
	appMessages     int64
	ctlMessages     int64
	ckptWrites      int64
	ckptRounds      int64
	loggedMessages  int64
	forced          int64
	storageWrites   int64
	storageBytes    int64
	failureInjected int64
}

func (c *workCounts) add(o workCounts) {
	c.ops += o.ops
	c.runs += o.runs
	c.capped += o.capped
	c.events += o.events
	c.makespanNS += o.makespanNS
	c.appMessages += o.appMessages
	c.ctlMessages += o.ctlMessages
	c.ckptWrites += o.ckptWrites
	c.ckptRounds += o.ckptRounds
	c.loggedMessages += o.loggedMessages
	c.forced += o.forced
	c.storageWrites += o.storageWrites
	c.storageBytes += o.storageBytes
	c.failureInjected += o.failureInjected
}

// named lists the counts under the names the report prints them by.
func (c workCounts) named() []counter {
	return []counter{
		{"workload.ops", c.ops},
		{"sim.runs", c.runs},
		{"sim.capped_runs", c.capped},
		{"sim.events", c.events},
		{"sim.makespan_ns", c.makespanNS},
		{"sim.app_messages", c.appMessages},
		{"sim.ctl_messages", c.ctlMessages},
		{"checkpoint.writes", c.ckptWrites},
		{"checkpoint.rounds", c.ckptRounds},
		{"checkpoint.logged_messages", c.loggedMessages},
		{"checkpoint.forced", c.forced},
		{"storage.writes", c.storageWrites},
		{"storage.bytes", c.storageBytes},
		{"failure.injected", c.failureInjected},
	}
}

// recordCounts publishes one pass's counts: printed as counters, and as
// the per-layer metrics of the same names.
func recordCounts(r *runReport, c workCounts) {
	r.counters = append(r.counters, c.named()...)
	for _, n := range c.named() {
		r.layer[n.name] = float64(n.value)
	}
	r.layer["sim.capped"] = 0
	if c.runs > 0 {
		r.layer["sim.capped"] = float64(c.capped) / float64(c.runs)
	}
}

// checkRepeat records whether a repetition reproduced the reference
// pass's counts and output digest exactly.
func checkRepeat(r *runReport, what string, ref, got workCounts, refDigest, gotDigest string) {
	r.op(got == ref, "%s: work counts differ from the verified pass: got %+v, want %+v", what, got, ref)
	r.op(gotDigest == refDigest, "%s: output digest %s differs from the verified pass's %s", what, short(gotDigest), short(refDigest))
}

func short(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// digester folds a pass's outputs, in order, into one SHA-256: the hash
// of the list of each output's hash.
type digester struct{ parts [][32]byte }

func (d *digester) add(b []byte) { d.parts = append(d.parts, sha256.Sum256(b)) }

func (d *digester) sum() string {
	h := sha256.New()
	for _, p := range d.parts {
		fmt.Fprintf(h, "%x\n", p)
	}
	return hex.EncodeToString(h.Sum(nil))
}
