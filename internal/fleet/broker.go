package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"tetriswrite/internal/exp"
	"tetriswrite/internal/runner"
	"tetriswrite/internal/telemetry"
)

// Config tunes a broker. The zero value is production-usable; tests
// shrink the intervals to milliseconds.
type Config struct {
	// LeaseTTL is how long a worker may go silent before it is
	// deregistered and its leased shards requeued. Default 5s.
	LeaseTTL time.Duration
	// HeartbeatEvery is the beat interval dictated to workers.
	// Default LeaseTTL/3.
	HeartbeatEvery time.Duration
	// Poll is the idle wait dictated to workers between empty Next
	// calls. Default 200ms.
	Poll time.Duration
	// Retry paces shard re-issues after a failure or lease expiry.
	// Base <= 0 means 500ms and Max <= 0 means 10s. Jitter is taken as
	// given (0 retries at exactly the backoff) unless Retry is left
	// entirely zero, which selects Jitter 0.2. The per-shard seed is
	// derived from the shard fingerprint, so schedules are reproducible
	// yet decorrelated across the shards a dead worker returns at once.
	Retry runner.Backoff
	// JournalPath enables the durable shard-completion journal (and
	// with it crash resume and the cross-restart response cache).
	// Empty disables journaling: the broker is then memory-only.
	JournalPath string
	// Registry receives the fleet.* metrics; nil creates a private one.
	Registry *telemetry.Registry
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// Now is the clock; nil means time.Now. Tests inject a fake to
	// exercise lease expiry without sleeping.
	Now func() time.Time
}

func (c *Config) normalize() {
	if c.Retry == (runner.Backoff{}) {
		c.Retry.Jitter = 0.2
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 5 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = c.LeaseTTL / 3
	}
	if c.Poll <= 0 {
		c.Poll = 200 * time.Millisecond
	}
	if c.Retry.Base <= 0 {
		c.Retry.Base = 500 * time.Millisecond
	}
	if c.Retry.Max <= 0 {
		c.Retry.Max = 10 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// ErrDraining rejects submissions while the broker drains for shutdown.
var ErrDraining = errors.New("fleet: broker is draining, not accepting jobs")

// ErrUnknownWorker tells a worker its registration is gone (lease
// expiry or broker restart); the worker re-registers and starts over.
var ErrUnknownWorker = errors.New("fleet: unknown worker, re-register")

type jobState string

const (
	JobRunning   jobState = "running"
	JobCompleted jobState = "completed"
	JobFailed    jobState = "failed"
	JobCancelled jobState = "cancelled"
)

type shardState int

const (
	shardPending shardState = iota
	shardLeased
	shardDone
	shardFailed
)

type shard struct {
	idx        int
	spec       ShardSpec
	fp         string
	state      shardState
	attempts   int // leases granted so far (1-based attempt numbers)
	worker     string
	eligibleAt time.Time
	result     ShardResult
	lastErr    string
}

type job struct {
	id       string
	spec     SweepSpec
	shards   []*shard
	state    jobState
	err      string
	created  time.Time
	deadline time.Time // zero = none
	done     chan struct{}
	events   *eventLog
	restored int // shards satisfied from the journal at resume
	cached   int // shards satisfied from the fingerprint cache
	retried  int // extra attempts consumed by failures/expiries
}

type shardKey struct {
	job string
	idx int
}

type workerState struct {
	id       string
	name     string
	version  string
	slots    int
	lastBeat time.Time
	leased   map[shardKey]struct{}
}

type metrics struct {
	jobsSubmitted, jobsCompleted, jobsFailed, jobsCancelled *telemetry.Counter
	shardsDispatched, shardsCompleted, shardsRetried        *telemetry.Counter
	shardsFailed, shardsCached, shardsRestored              *telemetry.Counter
	workersRegistered, workersExpired, determinismViol      *telemetry.Counter
}

// Broker owns the job table, the worker lease table and the journal.
// All public methods are goroutine-safe.
type Broker struct {
	cfg     Config
	reg     *telemetry.Registry
	journal *Journal
	m       metrics

	mu         sync.Mutex
	jobs       map[string]*job
	order      []string
	workers    map[string]*workerState
	cache      map[string]ShardResult // fingerprint → completed result
	nextJob    int
	nextWorker int
	draining   bool

	stop        chan struct{}
	stopOnce    sync.Once
	janitorDone chan struct{}
}

// New builds a broker, replays its journal (when configured) and starts
// the background janitor that expires leases and enforces deadlines.
func New(cfg Config) (*Broker, error) {
	cfg.normalize()
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	b := &Broker{
		cfg:         cfg,
		reg:         reg,
		jobs:        make(map[string]*job),
		workers:     make(map[string]*workerState),
		cache:       make(map[string]ShardResult),
		stop:        make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	b.m = metrics{
		jobsSubmitted:     reg.Counter("fleet.jobs_submitted", "sweep jobs accepted"),
		jobsCompleted:     reg.Counter("fleet.jobs_completed", "sweep jobs finished with every shard done"),
		jobsFailed:        reg.Counter("fleet.jobs_failed", "sweep jobs failed (retries exhausted or deadline)"),
		jobsCancelled:     reg.Counter("fleet.jobs_cancelled", "sweep jobs cancelled by clients"),
		shardsDispatched:  reg.Counter("fleet.shards_dispatched", "shard leases granted to workers"),
		shardsCompleted:   reg.Counter("fleet.shards_completed", "shards completed by workers"),
		shardsRetried:     reg.Counter("fleet.shards_retried", "shard attempts requeued after failure or lease expiry"),
		shardsFailed:      reg.Counter("fleet.shards_failed", "shards that exhausted their retry budget"),
		shardsCached:      reg.Counter("fleet.shards_cached", "shards satisfied from the fingerprint cache"),
		shardsRestored:    reg.Counter("fleet.shards_restored", "shards restored from the journal at resume"),
		workersRegistered: reg.Counter("fleet.workers_registered", "worker registrations accepted"),
		workersExpired:    reg.Counter("fleet.workers_expired", "workers deregistered on missed heartbeats"),
		determinismViol:   reg.Counter("fleet.determinism_violations", "duplicated shard completions that disagreed byte-wise"),
	}
	reg.GaugeFunc("fleet.workers_live", "currently registered workers", func() float64 {
		b.mu.Lock()
		defer b.mu.Unlock()
		return float64(len(b.workers))
	})
	reg.GaugeFunc("fleet.jobs_running", "jobs not yet terminal", func() float64 {
		b.mu.Lock()
		defer b.mu.Unlock()
		n := 0
		for _, j := range b.jobs {
			if j.state == JobRunning {
				n++
			}
		}
		return float64(n)
	})
	reg.GaugeFunc("fleet.shards_leased", "shards currently leased to workers", func() float64 {
		b.mu.Lock()
		defer b.mu.Unlock()
		n := 0
		for _, w := range b.workers {
			n += len(w.leased)
		}
		return float64(n)
	})

	if cfg.JournalPath != "" {
		j, recs, err := OpenJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		b.journal = j
		b.mu.Lock()
		b.replayLocked(recs)
		b.mu.Unlock()
	}

	go b.janitor()
	return b, nil
}

func (b *Broker) logf(format string, args ...any) {
	if b.cfg.Logf != nil {
		b.cfg.Logf(format, args...)
	}
}

// Registry returns the registry carrying the fleet.* metrics.
func (b *Broker) Registry() *telemetry.Registry { return b.reg }

// JournalPath returns the journal file path ("" when disabled).
func (b *Broker) JournalPath() string { return b.journal.Path() }

// ---- job lifecycle ----------------------------------------------------

// Submit normalizes and accepts a sweep job, returning its ID. Shards
// whose fingerprints are already in the completed-shard cache are
// satisfied immediately without touching a worker.
func (b *Broker) Submit(spec SweepSpec) (string, error) {
	if spec.LegacyEngine != "" {
		return "", fmt.Errorf("fleet: engine %q: the event-queue selector is retired", spec.LegacyEngine)
	}
	if err := spec.Normalize(); err != nil {
		return "", err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.draining {
		return "", ErrDraining
	}
	id := fmt.Sprintf("j%04d", b.nextJob)
	b.nextJob++
	j := b.newJobLocked(id, spec)
	b.jobs[id] = j
	b.order = append(b.order, id)
	b.appendJournalLocked(Record{Type: "job", Job: id, Spec: &spec})
	b.m.jobsSubmitted.Inc()
	j.events.append(Event{Type: "submitted", Job: id, Shard: -1,
		Detail: fmt.Sprintf("%d shards", len(j.shards))})
	b.logf("job %s submitted: %d shards across %d seeds", id, len(j.shards), len(spec.Seeds))
	b.applyCacheLocked(j)
	b.checkJobDoneLocked(j)
	return id, nil
}

func (b *Broker) newJobLocked(id string, spec SweepSpec) *job {
	now := b.cfg.Now()
	j := &job{
		id:      id,
		spec:    spec,
		state:   JobRunning,
		created: now,
		done:    make(chan struct{}),
		events:  newEventLog(b.cfg.Now),
	}
	if d := spec.deadline(); d > 0 {
		j.deadline = now.Add(d)
	}
	for i, sp := range spec.Shards() {
		j.shards = append(j.shards, &shard{idx: i, spec: sp, fp: sp.Fingerprint()})
	}
	return j
}

// applyCacheLocked completes every pending shard whose fingerprint the
// cache already answers — the response-cache path for resubmitted or
// overlapping sweeps.
func (b *Broker) applyCacheLocked(j *job) {
	if j.state != JobRunning {
		return
	}
	for _, sh := range j.shards {
		if sh.state != shardPending {
			continue
		}
		if res, ok := b.cache[sh.fp]; ok {
			j.cached++
			b.m.shardsCached.Inc()
			b.finishShardLocked(j, sh, res, "", 0, "cached")
		}
	}
}

// Cancel moves a running job to cancelled; its running shards are
// cancelled on the owning workers at their next heartbeat.
func (b *Broker) Cancel(id string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	j, ok := b.jobs[id]
	if !ok {
		return fmt.Errorf("fleet: unknown job %s", id)
	}
	if j.state != JobRunning {
		return nil // already terminal: cancelling is idempotent
	}
	j.state = JobCancelled
	b.appendJournalLocked(Record{Type: "cancel", Job: id})
	b.m.jobsCancelled.Inc()
	j.events.append(Event{Type: "cancelled", Job: id, Shard: -1})
	b.logf("job %s cancelled", id)
	close(j.done)
	j.events.close()
	return nil
}

// Wait blocks until the job is terminal or ctx is cancelled.
func (b *Broker) Wait(ctx context.Context, id string) error {
	b.mu.Lock()
	j, ok := b.jobs[id]
	b.mu.Unlock()
	if !ok {
		return fmt.Errorf("fleet: unknown job %s", id)
	}
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// finishShardLocked marks one shard done with its result and releases
// any lease bookkeeping. via labels the event ("worker", "cached",
// "restored").
func (b *Broker) finishShardLocked(j *job, sh *shard, res ShardResult, workerID string, attempt int, via string) {
	if sh.state == shardLeased && sh.worker != "" {
		if w, ok := b.workers[sh.worker]; ok {
			delete(w.leased, shardKey{j.id, sh.idx})
		}
	}
	sh.state = shardDone
	sh.result = res
	sh.worker = ""
	b.cache[sh.fp] = res
	b.appendJournalLocked(Record{Type: "shard", Job: j.id, Shard: sh.idx, Attempt: attempt, Result: &res})
	j.events.append(Event{Type: via, Job: j.id, Shard: sh.idx, Worker: workerID,
		Attempt: attempt, Fp: sh.fp, Detail: sh.spec.String()})
	b.checkJobDoneLocked(j)
}

// retryShardLocked requeues a failed or expired shard attempt, or fails
// the job when the retry budget is gone.
func (b *Broker) retryShardLocked(j *job, sh *shard, errMsg, kind string) {
	if w, ok := b.workers[sh.worker]; ok {
		delete(w.leased, shardKey{j.id, sh.idx})
	}
	sh.worker = ""
	sh.lastErr = errMsg
	if j.state != JobRunning {
		sh.state = shardPending
		return
	}
	if sh.attempts > j.spec.Retries {
		sh.state = shardFailed
		b.m.shardsFailed.Inc()
		j.events.append(Event{Type: "shard_failed", Job: j.id, Shard: sh.idx,
			Attempt: sh.attempts, Fp: sh.fp, Err: errMsg})
		b.failJobLocked(j, fmt.Sprintf("shard %d (%s) failed after %d attempts: %s",
			sh.idx, sh.spec, sh.attempts, errMsg))
		return
	}
	bo := b.cfg.Retry
	bo.Seed = fpSeed(sh.fp)
	delay := bo.Delay(sh.attempts)
	sh.state = shardPending
	sh.eligibleAt = b.cfg.Now().Add(delay)
	j.retried++
	b.m.shardsRetried.Inc()
	j.events.append(Event{Type: kind, Job: j.id, Shard: sh.idx, Attempt: sh.attempts,
		Fp: sh.fp, Err: errMsg, Detail: fmt.Sprintf("retry in %v", delay.Round(time.Millisecond))})
	b.logf("job %s shard %d (%s): %s (attempt %d, retry in %v)",
		j.id, sh.idx, sh.spec, kind, sh.attempts, delay.Round(time.Millisecond))
}

func fpSeed(fp string) uint64 {
	v, _ := strconv.ParseUint(fp, 16, 64)
	return v
}

func (b *Broker) failJobLocked(j *job, msg string) {
	if j.state != JobRunning {
		return
	}
	j.state = JobFailed
	j.err = msg
	b.appendJournalLocked(Record{Type: "done", Job: j.id, State: string(JobFailed), Err: msg})
	b.m.jobsFailed.Inc()
	j.events.append(Event{Type: "failed", Job: j.id, Shard: -1, Err: msg})
	b.logf("job %s failed: %s", j.id, msg)
	close(j.done)
	j.events.close()
}

func (b *Broker) checkJobDoneLocked(j *job) {
	if j.state != JobRunning {
		return
	}
	for _, sh := range j.shards {
		if sh.state != shardDone {
			return
		}
	}
	j.state = JobCompleted
	b.appendJournalLocked(Record{Type: "done", Job: j.id, State: string(JobCompleted)})
	b.m.jobsCompleted.Inc()
	j.events.append(Event{Type: "completed", Job: j.id, Shard: -1})
	b.logf("job %s completed (%d shards: %d cached, %d restored, %d retried attempts)",
		j.id, len(j.shards), j.cached, j.restored, j.retried)
	close(j.done)
	j.events.close()
}

func (b *Broker) appendJournalLocked(rec Record) {
	if err := b.journal.Append(rec); err != nil {
		// Journal loss degrades durability, not correctness; surface it
		// loudly and carry on serving from memory.
		b.logf("journal append failed (type=%s job=%s): %v", rec.Type, rec.Job, err)
	}
}

// ---- worker RPC -------------------------------------------------------

// RPC returns the receiver to register with an rpc.Server under
// RPCService.
func (b *Broker) RPC() *RPC { return &RPC{b: b} }

// RPC is the net/rpc receiver fronting a Broker; its methods are the
// wire protocol and hold no state of their own.
type RPC struct{ b *Broker }

// Register admits a worker and dictates its cadence.
func (r *RPC) Register(args *RegisterArgs, reply *RegisterReply) error {
	b := r.b
	b.mu.Lock()
	defer b.mu.Unlock()
	id := fmt.Sprintf("w%03d", b.nextWorker)
	b.nextWorker++
	slots := args.Slots
	if slots <= 0 {
		slots = 1
	}
	b.workers[id] = &workerState{
		id: id, name: args.Name, version: args.Version, slots: slots,
		lastBeat: b.cfg.Now(), leased: make(map[shardKey]struct{}),
	}
	b.m.workersRegistered.Inc()
	reply.WorkerID = id
	reply.LeaseTTL = b.cfg.LeaseTTL
	reply.HeartbeatEvery = b.cfg.HeartbeatEvery
	reply.Poll = b.cfg.Poll
	b.logf("worker %s registered: %s (%s, %d slots)", id, args.Name, args.Version, slots)
	return nil
}

// Heartbeat renews the worker's lease and reports jobs to stop running.
func (r *RPC) Heartbeat(args *HeartbeatArgs, reply *HeartbeatReply) error {
	b := r.b
	b.mu.Lock()
	defer b.mu.Unlock()
	w, ok := b.workers[args.WorkerID]
	if !ok {
		reply.OK = false
		return nil
	}
	w.lastBeat = b.cfg.Now()
	reply.OK = true
	seen := map[string]bool{}
	for k := range w.leased {
		j, ok := b.jobs[k.job]
		if !ok || j.state == JobRunning {
			continue
		}
		if !seen[k.job] {
			seen[k.job] = true
			reply.CancelJobs = append(reply.CancelJobs, k.job)
		}
		delete(w.leased, k)
	}
	return nil
}

// Next leases one eligible shard to the worker, scanning jobs in
// submission order and shards in grid order.
func (r *RPC) Next(args *NextArgs, reply *NextReply) error {
	b := r.b
	b.mu.Lock()
	defer b.mu.Unlock()
	w, ok := b.workers[args.WorkerID]
	if !ok {
		return ErrUnknownWorker
	}
	now := b.cfg.Now()
	w.lastBeat = now
	for _, id := range b.order {
		j := b.jobs[id]
		if j.state != JobRunning {
			continue
		}
		for _, sh := range j.shards {
			if sh.state != shardPending || sh.eligibleAt.After(now) {
				continue
			}
			sh.state = shardLeased
			sh.worker = w.id
			sh.attempts++
			w.leased[shardKey{j.id, sh.idx}] = struct{}{}
			b.m.shardsDispatched.Inc()
			j.events.append(Event{Type: "lease", Job: j.id, Shard: sh.idx,
				Worker: w.id, Attempt: sh.attempts, Fp: sh.fp, Detail: sh.spec.String()})
			reply.Found = true
			reply.A = Assignment{
				Job: j.id, Shard: sh.idx, Attempt: sh.attempts,
				Timeout: j.spec.shardTimeout(), Spec: sh.spec,
			}
			return nil
		}
	}
	return nil
}

// Complete records one attempt's outcome. Reports for unknown jobs or
// already-settled shards are tolerated — with settled shards
// cross-checked for byte-identity, because two completions of the same
// fingerprint disagreeing means the determinism contract broke.
func (r *RPC) Complete(args *CompleteArgs, reply *CompleteReply) error {
	b := r.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if w, ok := b.workers[args.WorkerID]; ok {
		w.lastBeat = b.cfg.Now()
		delete(w.leased, shardKey{args.Job, args.Shard})
	}
	j, ok := b.jobs[args.Job]
	if !ok || args.Shard < 0 || args.Shard >= len(j.shards) {
		return nil // stale report for a job this broker no longer has
	}
	sh := j.shards[args.Shard]
	if !args.OK {
		if sh.state == shardLeased {
			b.retryShardLocked(j, sh, args.Err, "retry")
		}
		return nil
	}
	if args.Result.Fp != sh.fp {
		b.logf("job %s shard %d: completion fingerprint %s != expected %s; dropped",
			j.id, sh.idx, args.Result.Fp, sh.fp)
		return nil
	}
	if sh.state == shardDone {
		if args.Result != sh.result {
			b.m.determinismViol.Inc()
			msg := fmt.Sprintf("determinism violation: shard %d (%s) fp %s: duplicate completion from %s disagrees with recorded result",
				sh.idx, sh.spec, sh.fp, args.WorkerID)
			j.events.append(Event{Type: "determinism_violation", Job: j.id,
				Shard: sh.idx, Worker: args.WorkerID, Fp: sh.fp, Err: msg})
			b.logf("%s", msg)
			b.failJobLocked(j, msg)
		}
		return nil
	}
	b.cache[sh.fp] = args.Result
	if j.state != JobRunning {
		return nil // result cached; the job itself is already settled
	}
	b.m.shardsCompleted.Inc()
	b.finishShardLocked(j, sh, args.Result, args.WorkerID, args.Attempt, "complete")
	return nil
}

// Deregister is the clean goodbye: leased shards requeue immediately
// and without consuming a retry attempt, since nothing failed.
func (r *RPC) Deregister(args *DeregisterArgs, reply *DeregisterReply) error {
	b := r.b
	b.mu.Lock()
	defer b.mu.Unlock()
	w, ok := b.workers[args.WorkerID]
	if !ok {
		return nil
	}
	for k := range w.leased {
		if j, ok := b.jobs[k.job]; ok {
			sh := j.shards[k.idx]
			if sh.state == shardLeased {
				sh.state = shardPending
				sh.worker = ""
				sh.attempts-- // the lease never ran to failure; hand the attempt back
				sh.eligibleAt = time.Time{}
				j.events.append(Event{Type: "requeued", Job: j.id, Shard: sh.idx,
					Worker: w.id, Fp: sh.fp, Detail: "worker deregistered"})
			}
		}
	}
	delete(b.workers, args.WorkerID)
	b.logf("worker %s deregistered (%s)", w.id, w.name)
	return nil
}

// ---- janitor ----------------------------------------------------------

func (b *Broker) janitor() {
	defer close(b.janitorDone)
	period := b.cfg.LeaseTTL / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-t.C:
			b.mu.Lock()
			b.sweepLocked(b.cfg.Now())
			b.mu.Unlock()
		}
	}
}

// sweepLocked expires silent workers (requeueing their shards as failed
// attempts) and enforces job deadlines.
func (b *Broker) sweepLocked(now time.Time) {
	for id, w := range b.workers {
		if now.Sub(w.lastBeat) <= b.cfg.LeaseTTL {
			continue
		}
		b.m.workersExpired.Inc()
		b.logf("worker %s (%s) lease expired after %v silence; requeueing %d shards",
			id, w.name, now.Sub(w.lastBeat).Round(time.Millisecond), len(w.leased))
		for k := range w.leased {
			if j, ok := b.jobs[k.job]; ok {
				sh := j.shards[k.idx]
				if sh.state == shardLeased && sh.worker == id {
					j.events.append(Event{Type: "worker_expired", Job: j.id,
						Shard: sh.idx, Worker: id, Fp: sh.fp})
					b.retryShardLocked(j, sh, fmt.Sprintf("worker %s lease expired", id), "retry")
				}
			}
		}
		delete(b.workers, id)
	}
	for _, id := range b.order {
		j := b.jobs[id]
		if j.state == JobRunning && !j.deadline.IsZero() && now.After(j.deadline) {
			b.failJobLocked(j, fmt.Sprintf("job deadline %s exceeded", j.spec.Deadline))
		}
	}
}

// ---- resume -----------------------------------------------------------

// replayLocked rebuilds broker state from journal records.
func (b *Broker) replayLocked(recs []Record) {
	for _, rec := range recs {
		switch rec.Type {
		case "job":
			if rec.Spec == nil {
				continue
			}
			spec := *rec.Spec
			if err := spec.Normalize(); err != nil {
				b.logf("journal: job %s spec no longer valid, dropped: %v", rec.Job, err)
				continue
			}
			j := b.newJobLocked(rec.Job, spec)
			b.jobs[rec.Job] = j
			b.order = append(b.order, rec.Job)
			if n, err := strconv.Atoi(rec.Job[1:]); err == nil && n >= b.nextJob {
				b.nextJob = n + 1
			}
		case "shard":
			if rec.Result == nil {
				continue
			}
			res := *rec.Result
			j, ok := b.jobs[rec.Job]
			if !ok || rec.Shard < 0 || rec.Shard >= len(j.shards) {
				b.cache[res.Fp] = res
				continue
			}
			sh := j.shards[rec.Shard]
			if sh.spec.isLegacyFingerprint(res.Fp) {
				res.Fp = sh.fp
			}
			b.cache[res.Fp] = res
			if sh.fp != res.Fp || sh.state == shardDone {
				continue
			}
			sh.state = shardDone
			sh.result = res
			j.restored++
		case "done":
			if j, ok := b.jobs[rec.Job]; ok && j.state == JobRunning {
				j.state = jobState(rec.State)
				j.err = rec.Err
				close(j.done)
				j.events.close()
			}
		case "cancel":
			if j, ok := b.jobs[rec.Job]; ok && j.state == JobRunning {
				j.state = JobCancelled
				close(j.done)
				j.events.close()
			}
		}
	}
	// Resumed running jobs: count restorations, fill remaining shards
	// from the cache (results journaled by other jobs still count), and
	// finish jobs whose last shard landed just before the crash.
	for _, id := range b.order {
		j := b.jobs[id]
		if j.state != JobRunning {
			continue
		}
		if j.restored > 0 {
			b.m.shardsRestored.Add(int64(j.restored))
			j.events.append(Event{Type: "resumed", Job: j.id, Shard: -1,
				Detail: fmt.Sprintf("%d of %d shards restored from journal", j.restored, len(j.shards))})
			b.logf("job %s resumed: %d of %d shards restored from journal", j.id, j.restored, len(j.shards))
		}
		b.applyCacheLocked(j)
		b.checkJobDoneLocked(j)
	}
}

// ---- status, results, shutdown ---------------------------------------

// ShardCounts summarizes a job's shard states.
type ShardCounts struct {
	Total    int `json:"total"`
	Pending  int `json:"pending"`
	Leased   int `json:"leased"`
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Cached   int `json:"cached"`
	Restored int `json:"restored"`
	Retried  int `json:"retried"`
}

// JobStatus is the client-facing view of one job.
type JobStatus struct {
	ID      string      `json:"id"`
	State   string      `json:"state"`
	Created string      `json:"created"`
	Error   string      `json:"error,omitempty"`
	Spec    SweepSpec   `json:"spec"`
	Shards  ShardCounts `json:"shards"`
}

func (b *Broker) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID: j.id, State: string(j.state), Error: j.err, Spec: j.spec,
		Created: j.created.UTC().Format(time.RFC3339Nano),
	}
	st.Shards.Total = len(j.shards)
	st.Shards.Cached = j.cached
	st.Shards.Restored = j.restored
	st.Shards.Retried = j.retried
	for _, sh := range j.shards {
		switch sh.state {
		case shardPending:
			st.Shards.Pending++
		case shardLeased:
			st.Shards.Leased++
		case shardDone:
			st.Shards.Done++
		case shardFailed:
			st.Shards.Failed++
		}
	}
	return st
}

// Status reports one job.
func (b *Broker) Status(id string) (JobStatus, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	j, ok := b.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return b.statusLocked(j), true
}

// Jobs lists every job in submission order.
func (b *Broker) Jobs() []JobStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]JobStatus, 0, len(b.order))
	for _, id := range b.order {
		out = append(out, b.statusLocked(b.jobs[id]))
	}
	return out
}

// WorkerStatus is the operator-facing view of one registered worker.
type WorkerStatus struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	Version  string `json:"version"`
	Slots    int    `json:"slots"`
	LastBeat string `json:"last_beat"`
	Leased   int    `json:"leased"`
}

// Workers lists the registered workers sorted by ID.
func (b *Broker) Workers() []WorkerStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]WorkerStatus, 0, len(b.workers))
	for _, id := range sortedKeys(b.workers) {
		w := b.workers[id]
		out = append(out, WorkerStatus{
			ID: w.id, Name: w.name, Version: w.version, Slots: w.slots,
			LastBeat: w.lastBeat.UTC().Format(time.RFC3339Nano), Leased: len(w.leased),
		})
	}
	return out
}

func sortedKeys(m map[string]*workerState) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// WriteResult renders the job's requested figure tables — exactly the
// bytes a serial tetrisbench run of the same grid would print. Partial
// jobs (cancelled, failed, or still running) render only with
// partial=true, zero-filled on the missing cells.
func (b *Broker) WriteResult(w io.Writer, id string, partial bool) error {
	b.mu.Lock()
	j, ok := b.jobs[id]
	if !ok {
		b.mu.Unlock()
		return fmt.Errorf("fleet: unknown job %s", id)
	}
	if j.state != JobCompleted && !partial {
		b.mu.Unlock()
		return fmt.Errorf("fleet: job %s is %s, not completed (pass partial to render anyway)", id, j.state)
	}
	// Snapshot the completed cells so rendering happens off-lock.
	spec := j.spec
	type cell struct {
		seed     int64
		workload string
		scheme   string
		res      ShardResult
	}
	var cells []cell
	for _, sh := range j.shards {
		if sh.state == shardDone {
			cells = append(cells, cell{sh.spec.Seed, sh.spec.Workload, sh.spec.Scheme, sh.result})
		}
	}
	b.mu.Unlock()

	profiles, err := exp.ResolveProfiles(spec.Workloads)
	if err != nil {
		return err
	}
	schemes, err := exp.ResolveSchemes(spec.Schemes)
	if err != nil {
		return err
	}
	for _, seed := range spec.Seeds {
		if len(spec.Seeds) > 1 {
			fmt.Fprintf(w, "== seed %d ==\n\n", seed)
		}
		opt := exp.Options{InstrBudget: spec.Instr, Cores: spec.Cores, Seed: seed}
		fr := exp.NewFullResults(opt, profiles, schemes)
		for _, c := range cells {
			if c.seed != seed {
				continue
			}
			if wi, si, ok := fr.CellIndex(c.workload, c.scheme); ok {
				fr.SetCell(wi, si, c.res.Summary.Result(), nil)
			}
		}
		for _, fig := range spec.Figs {
			switch fig {
			case 11:
				fmt.Fprintln(w, fr.Figure11())
			case 12:
				fmt.Fprintln(w, fr.Figure12())
			case 13:
				fmt.Fprintln(w, fr.Figure13())
			case 14:
				fmt.Fprintln(w, fr.Figure14())
			}
		}
		if spec.Energy {
			fmt.Fprintln(w, fr.EnergyTable())
		}
	}
	return nil
}

// Drain stops accepting new jobs and waits until every accepted job is
// terminal or ctx expires — the SIGTERM path. Workers keep receiving
// leases for in-flight jobs throughout; the journal makes whatever
// remains resumable by the next broker.
func (b *Broker) Drain(ctx context.Context) error {
	b.mu.Lock()
	b.draining = true
	b.mu.Unlock()
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		b.mu.Lock()
		busy := 0
		for _, j := range b.jobs {
			if j.state == JobRunning {
				busy++
			}
		}
		b.mu.Unlock()
		if busy == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fleet: drain interrupted with %d jobs still running (journal has the rest): %w", busy, ctx.Err())
		case <-t.C:
		}
	}
}

// Close stops the janitor and closes the journal. In-memory job state
// remains readable; RPC and HTTP serving are the caller's to stop.
func (b *Broker) Close() error {
	b.stopOnce.Do(func() { close(b.stop) })
	<-b.janitorDone
	return b.journal.Close()
}
