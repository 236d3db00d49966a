package fleet

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"tetriswrite/internal/runner"
	"tetriswrite/internal/system"
)

// fakeClock lets tests drive lease expiry, retry eligibility and
// deadlines without sleeping: the janitor and every broker decision
// read time through Config.Now.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// testBroker builds a journal-less broker on a fake clock with fast,
// jitter-free-enough retry pacing.
func testBroker(t *testing.T) (*Broker, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	b, err := New(Config{
		LeaseTTL: time.Second,
		Retry:    runner.Backoff{Base: 10 * time.Millisecond, Max: 40 * time.Millisecond, Jitter: 0.2},
		Now:      clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b, clk
}

// smallSpec is a 2-shard grid: one workload, two schemes.
func smallSpec() SweepSpec {
	return SweepSpec{Workloads: []string{"vips"}, Schemes: []string{"baseline", "tetris"}, Instr: 1000}
}

func register(t *testing.T, b *Broker, name string) string {
	t.Helper()
	var rep RegisterReply
	if err := b.RPC().Register(&RegisterArgs{Name: name, Slots: 2}, &rep); err != nil {
		t.Fatal(err)
	}
	return rep.WorkerID
}

func lease(t *testing.T, b *Broker, wid string) (Assignment, bool) {
	t.Helper()
	var rep NextReply
	if err := b.RPC().Next(&NextArgs{WorkerID: wid}, &rep); err != nil {
		t.Fatal(err)
	}
	return rep.A, rep.Found
}

// summaryFor fabricates a deterministic result for a shard spec, so
// duplicate completions agree exactly as real deterministic runs would.
func summaryFor(sp ShardSpec) system.Summary {
	return system.Summary{
		Workload: sp.Workload, Scheme: sp.Scheme, Seed: sp.Seed,
		RunningTimePs: sp.Instr * 100, IPC: 1 + float64(len(sp.Scheme)),
	}
}

func completeOK(t *testing.T, b *Broker, wid string, a Assignment) {
	t.Helper()
	err := b.RPC().Complete(&CompleteArgs{
		WorkerID: wid, Job: a.Job, Shard: a.Shard, Attempt: a.Attempt, OK: true,
		Result: ShardResult{Fp: a.Spec.Fingerprint(), Summary: summaryFor(a.Spec)},
	}, &CompleteReply{})
	if err != nil {
		t.Fatal(err)
	}
}

// drainAll leases and completes every eligible shard, returning how
// many it ran.
func drainAll(t *testing.T, b *Broker, wid string) int {
	t.Helper()
	n := 0
	for {
		a, found := lease(t, b, wid)
		if !found {
			return n
		}
		completeOK(t, b, wid, a)
		n++
	}
}

func TestSubmitLeaseCompleteLifecycle(t *testing.T) {
	b, _ := testBroker(t)
	id, err := b.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	st, ok := b.Status(id)
	if !ok || st.State != string(JobRunning) || st.Shards.Total != 2 || st.Shards.Pending != 2 {
		t.Fatalf("after submit: %+v", st)
	}

	wid := register(t, b, "unit")
	a, found := lease(t, b, wid)
	if !found || a.Job != id || a.Shard != 0 || a.Attempt != 1 {
		t.Fatalf("first lease = %+v found=%v", a, found)
	}
	if a.Spec.Workload != "vips" || a.Spec.Scheme != "baseline" {
		t.Fatalf("lease order broke grid order: %+v", a.Spec)
	}
	completeOK(t, b, wid, a)
	if n := drainAll(t, b, wid); n != 1 {
		t.Fatalf("drained %d more shards, want 1", n)
	}

	st, _ = b.Status(id)
	if st.State != string(JobCompleted) || st.Shards.Done != 2 {
		t.Fatalf("after completion: %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := b.Wait(ctx, id); err != nil {
		t.Fatalf("Wait on a completed job: %v", err)
	}
}

func TestNextUnknownWorker(t *testing.T) {
	b, _ := testBroker(t)
	var rep NextReply
	if err := b.RPC().Next(&NextArgs{WorkerID: "w999"}, &rep); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("err = %v, want ErrUnknownWorker", err)
	}
	var hb HeartbeatReply
	if err := b.RPC().Heartbeat(&HeartbeatArgs{WorkerID: "w999"}, &hb); err != nil || hb.OK {
		t.Fatalf("heartbeat from unknown worker: err=%v OK=%v, want nil err and OK=false", err, hb.OK)
	}
}

// TestFingerprintCacheAnswersResubmission: once a sweep completes, an
// identical submission is satisfied entirely from the cache without a
// single worker lease — the journal-as-response-cache behavior, here in
// its in-memory form.
func TestFingerprintCacheAnswersResubmission(t *testing.T) {
	b, _ := testBroker(t)
	id1, _ := b.Submit(smallSpec())
	wid := register(t, b, "unit")
	drainAll(t, b, wid)
	if st, _ := b.Status(id1); st.State != string(JobCompleted) {
		t.Fatalf("job 1: %+v", st)
	}

	id2, err := b.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	st, _ := b.Status(id2)
	if st.State != string(JobCompleted) || st.Shards.Cached != 2 {
		t.Fatalf("resubmission not served from cache: %+v", st)
	}
	if _, found := lease(t, b, wid); found {
		t.Fatal("cached job leaked a lease to a worker")
	}
	// And a partially overlapping sweep only runs the new cells.
	spec3 := smallSpec()
	spec3.Schemes = []string{"baseline", "tetris", "fnw"}
	id3, _ := b.Submit(spec3)
	if n := drainAll(t, b, wid); n != 1 {
		t.Fatalf("overlapping sweep ran %d shards, want only the 1 uncached", n)
	}
	if st, _ := b.Status(id3); st.State != string(JobCompleted) || st.Shards.Cached != 2 {
		t.Fatalf("job 3: %+v", st)
	}
}

// TestLeaseExpiryRequeuesWithBackoff: a worker that stops heartbeating
// is expired; its leased shard requeues as a consumed attempt and only
// becomes eligible after the backoff delay.
func TestLeaseExpiryRequeuesWithBackoff(t *testing.T) {
	b, clk := testBroker(t)
	id, _ := b.Submit(smallSpec())
	w1 := register(t, b, "doomed")
	a, found := lease(t, b, w1)
	if !found {
		t.Fatal("no lease")
	}

	clk.Advance(b.cfg.LeaseTTL + time.Millisecond)
	b.mu.Lock()
	b.sweepLocked(clk.Now())
	b.mu.Unlock()

	if ws := b.Workers(); len(ws) != 0 {
		t.Fatalf("expired worker still registered: %+v", ws)
	}
	var hb HeartbeatReply
	b.RPC().Heartbeat(&HeartbeatArgs{WorkerID: w1}, &hb)
	if hb.OK {
		t.Fatal("expired worker's heartbeat still accepted")
	}

	w2 := register(t, b, "survivor")
	if got, found := lease(t, b, w2); found && got.Shard == a.Shard {
		t.Fatalf("requeued shard leased before its backoff elapsed: %+v", got)
	}
	clk.Advance(100 * time.Millisecond) // past Retry.Max with jitter
	leased := map[int]int{}
	for {
		got, found := lease(t, b, w2)
		if !found {
			break
		}
		leased[got.Shard] = got.Attempt
	}
	if leased[a.Shard] != 2 {
		t.Fatalf("requeued shard attempt = %d, want 2 (expiry consumed attempt 1); leases: %v", leased[a.Shard], leased)
	}
	if st, _ := b.Status(id); st.Shards.Retried != 1 {
		t.Fatalf("retried count = %d, want 1", st.Shards.Retried)
	}
}

// TestDeregisterHandsAttemptBack: a clean goodbye requeues the lease
// immediately and does not burn a retry attempt.
func TestDeregisterHandsAttemptBack(t *testing.T) {
	b, _ := testBroker(t)
	b.Submit(smallSpec())
	w1 := register(t, b, "leaving")
	a, found := lease(t, b, w1)
	if !found {
		t.Fatal("no lease")
	}
	if err := b.RPC().Deregister(&DeregisterArgs{WorkerID: w1}, &DeregisterReply{}); err != nil {
		t.Fatal(err)
	}
	w2 := register(t, b, "next")
	got, found := lease(t, b, w2)
	if !found || got.Shard != a.Shard || got.Attempt != 1 {
		t.Fatalf("after deregister: %+v found=%v, want same shard at attempt 1 immediately", got, found)
	}
}

// TestRetryBudgetExhaustionFailsJob: Retries=3 means 4 attempts total;
// the 4th failure fails the job.
func TestRetryBudgetExhaustionFailsJob(t *testing.T) {
	b, clk := testBroker(t)
	spec := SweepSpec{Workloads: []string{"vips"}, Schemes: []string{"tetris"}, Instr: 1000}
	id, _ := b.Submit(spec)
	wid := register(t, b, "unit")
	for attempt := 1; attempt <= 4; attempt++ {
		a, found := lease(t, b, wid)
		if !found {
			t.Fatalf("no lease for attempt %d", attempt)
		}
		if a.Attempt != attempt {
			t.Fatalf("attempt = %d, want %d", a.Attempt, attempt)
		}
		err := b.RPC().Complete(&CompleteArgs{
			WorkerID: wid, Job: a.Job, Shard: a.Shard, Attempt: a.Attempt, Err: "simulated fault",
		}, &CompleteReply{})
		if err != nil {
			t.Fatal(err)
		}
		clk.Advance(100 * time.Millisecond)
	}
	st, _ := b.Status(id)
	if st.State != string(JobFailed) || !strings.Contains(st.Error, "after 4 attempts") {
		t.Fatalf("after exhausting retries: %+v", st)
	}
	// The failed job's lease cancellation reaches the worker via heartbeat.
	var hb HeartbeatReply
	b.RPC().Heartbeat(&HeartbeatArgs{WorkerID: wid}, &hb)
	for _, j := range hb.CancelJobs {
		if j == id {
			return
		}
	}
	// No lease outstanding at failure time, so no cancel needed — fine too.
}

// TestZeroJitterRetriesAtExactBackoff: Retry.Jitter 0 (pcmsimd -jitter
// 0) means no jitter, so every failed shard becomes eligible exactly
// Base after its failure; only an entirely unset Retry picks the
// default jitter.
func TestZeroJitterRetriesAtExactBackoff(t *testing.T) {
	clk := newFakeClock()
	b, err := New(Config{
		LeaseTTL: time.Second,
		Retry:    runner.Backoff{Base: 10 * time.Millisecond, Max: 40 * time.Millisecond},
		Now:      clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Submit(smallSpec())
	wid := register(t, b, "unit")
	for i := 0; i < 2; i++ {
		a, found := lease(t, b, wid)
		if !found {
			t.Fatalf("no lease for shard %d", i)
		}
		err := b.RPC().Complete(&CompleteArgs{
			WorkerID: wid, Job: a.Job, Shard: a.Shard, Attempt: a.Attempt, Err: "simulated fault",
		}, &CompleteReply{})
		if err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(10*time.Millisecond - time.Nanosecond)
	if a, found := lease(t, b, wid); found {
		t.Fatalf("shard %d leased before its backoff elapsed (jitter applied)", a.Shard)
	}
	clk.Advance(time.Nanosecond)
	for i := 0; i < 2; i++ {
		if _, found := lease(t, b, wid); !found {
			t.Fatalf("only %d of 2 shards eligible exactly at the backoff (jitter applied)", i)
		}
	}

	def, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer def.Close()
	if got := def.cfg.Retry; got.Jitter != 0.2 || got.Base != 500*time.Millisecond || got.Max != 10*time.Second {
		t.Errorf("unset Retry normalized to %+v, want Base 500ms, Max 10s, Jitter 0.2", got)
	}
}

// TestDuplicateCompletionMismatchIsDeterminismViolation: a duplicated
// completion that disagrees with the recorded result must fail the job
// loudly — it means the "pure function of the spec" contract broke.
func TestDuplicateCompletionMismatchIsDeterminismViolation(t *testing.T) {
	b, _ := testBroker(t)
	id, _ := b.Submit(smallSpec())
	wid := register(t, b, "unit")
	a, _ := lease(t, b, wid)
	completeOK(t, b, wid, a)

	// Agreeing duplicate (a retried attempt landing late): harmless.
	completeOK(t, b, wid, a)
	if st, _ := b.Status(id); st.State != string(JobRunning) {
		t.Fatalf("agreeing duplicate broke the job: %+v", st)
	}

	bad := summaryFor(a.Spec)
	bad.IPC += 0.5
	err := b.RPC().Complete(&CompleteArgs{
		WorkerID: wid, Job: a.Job, Shard: a.Shard, Attempt: a.Attempt, OK: true,
		Result: ShardResult{Fp: a.Spec.Fingerprint(), Summary: bad},
	}, &CompleteReply{})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := b.Status(id)
	if st.State != string(JobFailed) || !strings.Contains(st.Error, "determinism violation") {
		t.Fatalf("disagreeing duplicate tolerated: %+v", st)
	}
}

// TestCompletionWithWrongFingerprintDropped: a result whose fingerprint
// does not match the shard is dropped, leaving the lease to recover.
func TestCompletionWithWrongFingerprintDropped(t *testing.T) {
	b, _ := testBroker(t)
	id, _ := b.Submit(smallSpec())
	wid := register(t, b, "unit")
	a, _ := lease(t, b, wid)
	err := b.RPC().Complete(&CompleteArgs{
		WorkerID: wid, Job: a.Job, Shard: a.Shard, Attempt: a.Attempt, OK: true,
		Result: ShardResult{Fp: "0000000000000000", Summary: summaryFor(a.Spec)},
	}, &CompleteReply{})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := b.Status(id)
	if st.Shards.Done != 0 {
		t.Fatalf("mismatched fingerprint accepted: %+v", st)
	}
}

func TestCancelReachesWorkerOnHeartbeat(t *testing.T) {
	b, _ := testBroker(t)
	id, _ := b.Submit(smallSpec())
	wid := register(t, b, "unit")
	if _, found := lease(t, b, wid); !found {
		t.Fatal("no lease")
	}
	if err := b.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if err := b.Cancel(id); err != nil {
		t.Fatalf("cancel is not idempotent: %v", err)
	}
	var hb HeartbeatReply
	b.RPC().Heartbeat(&HeartbeatArgs{WorkerID: wid}, &hb)
	if !hb.OK || len(hb.CancelJobs) != 1 || hb.CancelJobs[0] != id {
		t.Fatalf("heartbeat = %+v, want CancelJobs [%s]", hb, id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := b.Wait(ctx, id); err != nil {
		t.Fatalf("Wait on a cancelled job: %v", err)
	}
	if _, found := lease(t, b, wid); found {
		t.Fatal("cancelled job still leasing shards")
	}
}

func TestJobDeadlineEnforced(t *testing.T) {
	b, clk := testBroker(t)
	spec := smallSpec()
	spec.Deadline = "1s"
	id, _ := b.Submit(spec)
	clk.Advance(2 * time.Second)
	b.mu.Lock()
	b.sweepLocked(clk.Now())
	b.mu.Unlock()
	st, _ := b.Status(id)
	if st.State != string(JobFailed) || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("deadline not enforced: %+v", st)
	}
}

func TestDrainRejectsNewJobs(t *testing.T) {
	b, _ := testBroker(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := b.Drain(ctx); err != nil {
		t.Fatalf("drain with no jobs: %v", err)
	}
	if _, err := b.Submit(smallSpec()); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining = %v, want ErrDraining", err)
	}
}

// TestWriteResultPartial: a running job renders only with partial=true.
func TestWriteResultPartial(t *testing.T) {
	b, _ := testBroker(t)
	spec := smallSpec()
	spec.Figs = []int{13}
	id, _ := b.Submit(spec)
	wid := register(t, b, "unit")
	a, _ := lease(t, b, wid)
	completeOK(t, b, wid, a)

	var buf bytes.Buffer
	if err := b.WriteResult(&buf, id, false); err == nil {
		t.Fatal("running job rendered without partial")
	}
	if err := b.WriteResult(&buf, id, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "vips") {
		t.Errorf("partial table missing the completed workload:\n%s", buf.String())
	}
	if err := b.WriteResult(&buf, "j9999", true); err == nil {
		t.Error("unknown job rendered")
	}
}

// TestEventStreamRecordsLifecycle: the per-job event log carries the
// submission, lease, completion and terminal events in order.
func TestEventStreamRecordsLifecycle(t *testing.T) {
	b, _ := testBroker(t)
	id, _ := b.Submit(smallSpec())
	wid := register(t, b, "unit")
	drainAll(t, b, wid)

	b.mu.Lock()
	j := b.jobs[id]
	b.mu.Unlock()
	history, live, done := j.events.subscribe()
	if live != nil {
		j.events.unsubscribe(live)
	}
	if !done {
		t.Fatal("event log of a completed job not closed")
	}
	var types []string
	for _, e := range history {
		types = append(types, e.Type)
	}
	got := strings.Join(types, ",")
	want := "submitted,lease,complete,lease,complete,completed"
	if got != want {
		t.Fatalf("event sequence = %s, want %s", got, want)
	}
	for i, e := range history {
		if e.Seq != i {
			t.Errorf("event %d has Seq %d", i, e.Seq)
		}
	}
}
