package rdm

// The deployment execution engine: wraps the deploy-file step pipeline
// with step-level checkpoints journaled to the durable store, rollback on
// terminal failure, singleflight dedup with bounded build concurrency,
// per-step retry for transfers, a watchdog that kills hung steps, and
// quarantine of types that fail repeatedly.
//
// The simulated site filesystem is memory-only (DESIGN §10), so each
// checkpoint is self-contained: it carries the filesystem entries and site
// side-state its step produced. Resuming an interrupted build replays
// those effects at zero clock and transfer cost, then executes only the
// steps the crash lost.

import (
	"context"
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"time"

	"glare/internal/cog"
	"glare/internal/deployfile"
	"glare/internal/expect"
	"glare/internal/gridftp"
	"glare/internal/simclock"
	"glare/internal/site"
	"glare/internal/store"
	"glare/internal/telemetry"
	"glare/internal/transport"
	"glare/internal/xmlutil"
)

// DeployHook is called before every build step; fault injectors use it to
// fail, crash, hang or delay a step. The context carries the step's
// watchdog deadline, so injected hangs end when the engine kills the step.
type DeployHook func(ctx context.Context, typeName, stepName string) error

// DeployLimits tunes the deployment execution engine.
type DeployLimits struct {
	// MaxConcurrent bounds simultaneous top-level builds on this site;
	// dependency installations run inside their parent's slot.
	MaxConcurrent int
	// QueueDepth bounds builds waiting for a slot (FIFO); when the queue
	// is full new builds are shed with transport.Unavailable. Negative
	// means no queue at all.
	QueueDepth int
	// StepGrace is added (in real time) to each step's timeout before the
	// watchdog kills it.
	StepGrace time.Duration
	// Retry is the backoff policy for transfer steps that fail with a
	// transient error or md5 mismatch; zero uses the transport default.
	Retry transport.RetryPolicy
	// QuarantineAfter is the number of consecutive failed builds after
	// which a type is quarantined.
	QuarantineAfter int
	// QuarantineCooldown is the base cool-down (virtual time); it doubles
	// with every further failure, capped at quarantineMax.
	QuarantineCooldown time.Duration
}

const (
	// followerWait bounds (in real time) how long a deduplicated request
	// waits for the in-flight build of the same type before giving up.
	followerWait = 2 * time.Minute
	// quarantineMax caps a type's doubling quarantine cool-down (virtual
	// time).
	quarantineMax = time.Hour
)

// DefaultDeployLimits is the stock engine configuration.
func DefaultDeployLimits() DeployLimits {
	return DeployLimits{
		MaxConcurrent:      2,
		QueueDepth:         8,
		StepGrace:          2 * time.Second,
		Retry:              transport.DefaultRetryPolicy(),
		QuarantineAfter:    3,
		QuarantineCooldown: time.Minute,
	}
}

func (l DeployLimits) withDefaults() DeployLimits {
	d := DefaultDeployLimits()
	if l.MaxConcurrent > 0 {
		d.MaxConcurrent = l.MaxConcurrent
	}
	if l.QueueDepth != 0 {
		d.QueueDepth = l.QueueDepth
	}
	if d.QueueDepth < 0 {
		d.QueueDepth = 0
	}
	if l.StepGrace > 0 {
		d.StepGrace = l.StepGrace
	}
	if l.Retry.MaxAttempts > 0 {
		d.Retry = l.Retry
	}
	if l.QuarantineAfter > 0 {
		d.QuarantineAfter = l.QuarantineAfter
	}
	if l.QuarantineCooldown > 0 {
		d.QuarantineCooldown = l.QuarantineCooldown
	}
	return d
}

// deployCounters bundles the glare_deploy_* metrics.
type deployCounters struct {
	resumes      *telemetry.Counter
	stepsSkipped *telemetry.Counter
	rollbacks    *telemetry.Counter
	dedupHits    *telemetry.Counter
	quarantined  *telemetry.Counter
	preempted    *telemetry.Counter
	stepRetries  *telemetry.Counter
	queueShed    *telemetry.Counter
	active       *telemetry.Gauge
}

func newDeployCounters(tel *telemetry.Telemetry) deployCounters {
	return deployCounters{
		resumes:      tel.Counter("glare_deploy_resumes_total"),
		stepsSkipped: tel.Counter("glare_deploy_steps_skipped_total"),
		rollbacks:    tel.Counter("glare_deploy_rollbacks_total"),
		dedupHits:    tel.Counter("glare_deploy_dedup_hits_total"),
		quarantined:  tel.Counter("glare_deploy_quarantined_total"),
		preempted:    tel.Counter("glare_deploy_preempt_quarantined_total"),
		stepRetries:  tel.Counter("glare_deploy_step_retries_total"),
		queueShed:    tel.Counter("glare_deploy_queue_shed_total"),
		active:       tel.Gauge("glare_deploy_active_builds"),
	}
}

// buildCall is one in-flight build; followers of the singleflight wait on
// done and share the leader's outcome.
type buildCall struct {
	done   chan struct{}
	report *DeployReport
	err    error
}

// buildGate is a FIFO semaphore bounding concurrent builds, with a bounded
// wait queue that sheds overflow.
type buildGate struct {
	mu       chan struct{} // 1-buffered; protects the fields below
	total    int
	free     int
	waiters  []chan struct{}
	maxQueue int
}

func newBuildGate(slots, maxQueue int) *buildGate {
	g := &buildGate{mu: make(chan struct{}, 1), total: slots, free: slots, maxQueue: maxQueue}
	g.mu <- struct{}{}
	return g
}

// acquire takes a slot, queuing FIFO when none is free; a full queue sheds
// the request with transport.Unavailable.
func (g *buildGate) acquire(siteName string) (func(), error) {
	<-g.mu
	if g.free > 0 {
		g.free--
		g.mu <- struct{}{}
		return g.release, nil
	}
	if len(g.waiters) >= g.maxQueue {
		shed := len(g.waiters)
		g.mu <- struct{}{}
		return nil, &transport.Unavailable{
			Address: siteName, Operation: "DeployLocal", Reason: "deploy-queue-full",
			Err: fmt.Errorf("site runs %d concurrent build(s) with %d queued", g.total, shed),
		}
	}
	ch := make(chan struct{})
	g.waiters = append(g.waiters, ch)
	g.mu <- struct{}{}
	<-ch // slot handed over by release
	return g.release, nil
}

// release returns a slot, handing it directly to the head of the queue.
func (g *buildGate) release() {
	<-g.mu
	if len(g.waiters) > 0 {
		ch := g.waiters[0]
		g.waiters = g.waiters[1:]
		g.mu <- struct{}{}
		close(ch)
		return
	}
	g.free++
	g.mu <- struct{}{}
}

func (g *buildGate) stats() (active, queued int) {
	<-g.mu
	defer func() { g.mu <- struct{}{} }()
	return g.total - g.free, len(g.waiters)
}

// quarState tracks a type's consecutive build failures and cool-down.
type quarState struct {
	fails     int
	until     time.Time // zero until the threshold is reached
	preempted bool      // quarantined by an alert rule, not the threshold
}

// ---------------------------------------------------------------------------
// Singleflight + quarantine + admission (called from deployLocal).

// joinOrLead either joins an in-flight build of the type (returning the
// shared outcome) or registers the caller as the leader. Exactly one of
// (call, join) is non-nil.
func (s *Service) joinOrLead(typeName string) (call *buildCall, join func() (*DeployReport, error), err error) {
	s.mu.Lock()
	if existing, busy := s.inflight[typeName]; busy {
		s.mu.Unlock()
		s.deployTel.dedupHits.Inc()
		return nil, func() (*DeployReport, error) {
			wait := time.NewTimer(followerWait)
			defer wait.Stop()
			select {
			case <-existing.done:
				if existing.err != nil {
					return nil, fmt.Errorf("rdm: concurrent deployment of %q failed: %w", typeName, existing.err)
				}
				rep := *existing.report
				return &rep, nil
			case <-wait.C:
				return nil, &transport.Unavailable{
					Address: s.site.Attrs.Name, Operation: "DeployLocal",
					Reason: "deploy-wait-timeout",
					Err:    fmt.Errorf("in-flight build of %q exceeded the follower deadline", typeName),
				}
			}
		}, nil
	}
	if qerr := s.quarantineCheckLocked(typeName); qerr != nil {
		s.mu.Unlock()
		return nil, nil, qerr
	}
	call = &buildCall{done: make(chan struct{})}
	s.inflight[typeName] = call
	s.mu.Unlock()
	return call, nil, nil
}

// finishCall publishes the leader's outcome and releases the singleflight.
func (s *Service) finishCall(typeName string, call *buildCall, report *DeployReport, err error) {
	s.mu.Lock()
	delete(s.inflight, typeName)
	s.mu.Unlock()
	call.report, call.err = report, err
	close(call.done)
}

func (s *Service) quarantineCheckLocked(typeName string) error {
	q := s.quarantined[typeName]
	if q == nil || q.fails < s.limits.QuarantineAfter {
		return nil
	}
	now := s.clock.Now()
	if now.Before(q.until) {
		return fmt.Errorf("rdm: type %q quarantined after %d consecutive build failures (cool-down ends in %v)",
			typeName, q.fails, q.until.Sub(now))
	}
	return nil // cool-down over: one probe build is allowed through
}

// noteBuildFailure counts a terminal (non-crash) build failure and arms or
// extends the quarantine once the threshold is crossed. Cool-down grows
// exponentially with each failure past the threshold.
func (s *Service) noteBuildFailure(typeName string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.quarantined[typeName]
	if q == nil {
		q = &quarState{}
		s.quarantined[typeName] = q
	}
	q.fails++
	if q.fails < s.limits.QuarantineAfter {
		return
	}
	cool := s.limits.QuarantineCooldown
	for i := s.limits.QuarantineAfter; i < q.fails; i++ {
		cool *= 2
		if cool >= quarantineMax {
			cool = quarantineMax
			break
		}
	}
	q.until = s.clock.Now().Add(cool)
	s.deployTel.quarantined.Inc()
}

func (s *Service) noteBuildSuccess(typeName string) {
	s.mu.Lock()
	delete(s.quarantined, typeName)
	s.mu.Unlock()
}

// PreemptQuarantine is the alert engine's hand into the deploy engine:
// every type with recent build failures that has NOT yet reached the
// consecutive-failure threshold is quarantined immediately, as if the
// threshold had fired. A rising failure rate across the window is
// stronger evidence than any single type's consecutive count, so the
// cool-down starts before more builds are burned. Types already
// quarantined (or with no failures) are untouched. Returns the types it
// quarantined, sorted; rule names the triggering alert rule.
func (s *Service) PreemptQuarantine(rule string) []string {
	now := s.clock.Now()
	s.mu.Lock()
	var hit []string
	for name, q := range s.quarantined {
		if q.fails == 0 || q.fails >= s.limits.QuarantineAfter {
			continue
		}
		q.fails = s.limits.QuarantineAfter
		q.until = now.Add(s.limits.QuarantineCooldown)
		q.preempted = true
		s.deployTel.quarantined.Inc()
		s.deployTel.preempted.Inc()
		hit = append(hit, name)
	}
	s.mu.Unlock()
	sort.Strings(hit)
	for _, name := range hit {
		s.site.NotifyAdmin("pre-emptive quarantine: "+name,
			fmt.Sprintf("alert rule %q quarantined type %q before the consecutive-failure threshold", rule, name))
	}
	return hit
}

// sweepQuarantine drops quarantine records whose cool-down lapsed more
// than the maximum cool-down ago: the type has been eligible for a probe
// for a long time and nobody asked, so keep the table small.
func (s *Service) sweepQuarantine() {
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, q := range s.quarantined {
		if !q.until.IsZero() && now.After(q.until.Add(quarantineMax)) {
			delete(s.quarantined, name)
		}
	}
}

// ---------------------------------------------------------------------------
// Checkpointed build execution.

// runBuild executes resolved deploy-file commands through the selected
// method, skipping steps whose checkpoints replay cleanly and journaling a
// checkpoint after each executed step. On terminal failure the partial
// install is rolled back; a simulated crash returns immediately leaving
// checkpoints (and journal) intact for resume.
func (s *Service) runBuild(t string, build *deployfile.Build, cmds []deployfile.Command, method Method, chargeOverhead bool) (cog.Result, error) {
	var res cog.Result
	ckpts := s.checkpointsFor(t)
	var exec stepExecutor
	resumed := false

	// Register the directories this build owns so concurrent builds of
	// other types can scope their effect diffs away from ours (and vice
	// versa) without serializing step execution.
	roots := buildRoots(cmds)
	s.mu.Lock()
	s.buildRoots[t] = roots
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.buildRoots, t)
		s.mu.Unlock()
	}()
	for i, c := range cmds {
		// Skip phase: replay the checkpointed prefix. The first executed
		// step ends it — anything journaled past a divergence is stale and
		// gets truncated when the re-run step records its checkpoint.
		if exec == nil && i < len(ckpts) && s.canReplay(ckpts[i], c, build) {
			s.replayStep(ckpts[i])
			s.deployTel.stepsSkipped.Inc()
			if !resumed {
				resumed = true
				s.deployTel.resumes.Inc()
			}
			continue
		}
		if exec == nil {
			var overhead cog.Result
			var err error
			exec, overhead, err = s.openExecutor(method, chargeOverhead)
			if err != nil {
				return res, err
			}
			res.Overhead += overhead.Overhead
		}
		stepRes, err := s.executeStep(exec, t, build, i, c)
		res.Communication += stepRes.Communication
		res.Installation += stepRes.Installation
		if err != nil {
			if isBuildCrash(err) {
				return res, err // checkpoints survive for resume
			}
			s.rollbackBuild(t)
			return res, err
		}
	}
	return res, nil
}

// executeStep runs one command with fault-injection hook, watchdog
// deadline and (for transfers) retry, then captures its effects as a
// checkpoint. Steps of concurrent builds run unserialized; the effect
// diff is scoped by ownership instead — paths under another in-flight
// build's registered roots are excluded, so a diff never absorbs a
// concurrent build's writes while sequential builds keep full-site
// fidelity.
func (s *Service) executeStep(exec stepExecutor, typeName string, build *deployfile.Build, index int, c deployfile.Command) (cog.Result, error) {
	exclude := s.otherRoots(typeName)

	timeout := c.Timeout
	if timeout <= 0 {
		timeout = deployfile.DefaultStepTimeout
	}
	transfer := isTransferCmd(c.Cmdline)
	attempts := 1
	if transfer && s.limits.Retry.MaxAttempts > 1 {
		attempts = s.limits.Retry.MaxAttempts
	}

	beforeFS := s.site.FS.Entries()
	beforeSide := s.site.SideStateSnapshot()

	var res cog.Result
	var err error
	for attempt := 1; ; attempt++ {
		// Watchdog: the step (and any injected hang) dies at its timeout
		// plus a grace period — real time, since virtual-clock work
		// completes in microseconds of real time.
		ctx, cancel := context.WithTimeout(context.Background(), timeout+s.limits.StepGrace)
		if err = s.stepHook(ctx, typeName, c.Step.Name); err == nil {
			var r cog.Result
			r, err = exec.runStep(ctx, c)
			res.Communication += r.Communication
			res.Installation += r.Installation
		}
		cancel()
		if err == nil || attempt >= attempts || isBuildCrash(err) || !retryableStep(err) {
			break
		}
		s.deployTel.stepRetries.Inc()
		s.clock.Sleep(s.limits.Retry.Delay(attempt, nil))
	}

	afterFS := s.site.FS.Entries()
	afterSide := s.site.SideStateSnapshot()
	ck := buildCheckpoint(typeName, build.Name, index, c, transfer, beforeFS, beforeSide, afterFS, afterSide, exclude)
	if err != nil {
		// Sweep the failed attempt's partial effects so the filesystem
		// matches the checkpoint journal exactly — for a crash this also
		// mirrors process death taking the memory-only FS with it.
		s.undoEffects(ck)
		return res, fmt.Errorf("step %s: %w", c.Step.Name, err)
	}
	s.recordStep(ck)
	return res, nil
}

func (s *Service) stepHook(ctx context.Context, typeName, stepName string) error {
	if s.deployHook == nil {
		return nil
	}
	return s.deployHook(ctx, typeName, stepName)
}

// checkpointsFor returns a copy of the type's checkpointed steps.
func (s *Service) checkpointsFor(typeName string) []store.DeployStep {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]store.DeployStep(nil), s.resume[typeName]...)
}

// canReplay decides whether a checkpoint still matches the step the
// deploy-file wants at this position. Download checkpoints must carry the
// deploy-file's declared md5sum, so an updated archive forces a re-fetch.
func (s *Service) canReplay(ck store.DeployStep, c deployfile.Command, build *deployfile.Build) bool {
	if ck.Build != build.Name || ck.Step != c.Step.Name {
		return false
	}
	transfer := isTransferCmd(c.Cmdline)
	if transfer != ck.Transfer {
		return false
	}
	if transfer {
		if _, sum := deployfile.ChecksumOfStep(c.Step); ck.MD5 != sum {
			return false
		}
	}
	for _, u := range ck.Unpacks {
		if _, ok := s.site.Repo.ByName(u.Artifact); !ok {
			return false
		}
	}
	return true
}

// replayStep re-materializes a checkpointed step's effects — no clock
// cost, no transfer.
func (s *Service) replayStep(ck store.DeployStep) {
	for _, f := range ck.Files {
		s.site.FS.Write(f.Path, site.FileKind(f.Kind), f.Size, f.MD5, f.Artifact)
	}
	for _, p := range ck.Removed {
		s.site.FS.Remove(p)
	}
	for _, u := range ck.Unpacks {
		s.site.RestoreUnpack(u.Dir, u.Artifact)
	}
	for _, pr := range ck.Prefixes {
		s.site.RestorePrefix(pr.Dir, pr.Prefix, true)
	}
	for _, sv := range ck.Services {
		s.site.DeployService(sv.Name, sv.Home)
	}
}

// recordStep stores a checkpoint in memory (same-process resume) and in
// the journal (restart resume), truncating any stale tail at its index.
func (s *Service) recordStep(ck store.DeployStep) {
	s.mu.Lock()
	list := s.resume[ck.Type]
	if ck.Index < len(list) {
		list = list[:ck.Index]
	}
	s.resume[ck.Type] = append(list, ck)
	s.mu.Unlock()
	_ = s.store.RecordStep(ck)
}

// clearCheckpoints drops a type's checkpoints after the build completed
// and registered (journaling the clear so restart cannot resume it).
func (s *Service) clearCheckpoints(typeName string) {
	s.mu.Lock()
	_, had := s.resume[typeName]
	delete(s.resume, typeName)
	s.mu.Unlock()
	if had {
		_ = s.store.ClearSteps(typeName)
	}
}

// rollbackBuild tears down a failed build: every checkpointed step's
// created entries, services and bookkeeping are undone in reverse order
// and the abort is journaled, leaving site and ADR as if the build never
// started.
func (s *Service) rollbackBuild(typeName string) {
	s.mu.Lock()
	cks := s.resume[typeName]
	delete(s.resume, typeName)
	s.mu.Unlock()
	for i := len(cks) - 1; i >= 0; i-- {
		s.undoEffects(cks[i])
	}
	if len(cks) > 0 {
		_ = s.store.ClearSteps(typeName)
	}
	s.deployTel.rollbacks.Inc()
}

// undoEffects reverses one checkpoint: entries the step created are
// removed, services it brought up withdrawn, unpack/configure bookkeeping
// under its directories forgotten. Pre-existing entries the step merely
// overwrote are left in place (their old contents are gone).
func (s *Service) undoEffects(ck store.DeployStep) {
	for _, sv := range ck.Services {
		s.site.UndeployService(sv.Name)
	}
	for _, f := range ck.Files {
		if f.New {
			s.site.FS.Remove(f.Path)
		}
	}
	for _, u := range ck.Unpacks {
		s.site.ForgetDir(u.Dir)
	}
	for _, pr := range ck.Prefixes {
		s.site.ForgetDir(pr.Dir)
	}
}

// buildCheckpoint diffs the before/after snapshots into a self-contained
// checkpoint record. Paths under exclude (directory roots owned by other
// in-flight builds) are dropped from every diff component so concurrent
// builds never claim each other's effects; with no concurrent build the
// exclusion set is empty and the diff covers the whole site.
func buildCheckpoint(typeName, buildName string, index int, c deployfile.Command, transfer bool,
	beforeFS map[string]site.File, beforeSide site.SideState,
	afterFS map[string]site.File, afterSide site.SideState, exclude []string) store.DeployStep {
	ck := store.DeployStep{
		Type: typeName, Build: buildName, Step: c.Step.Name, Index: index,
		Transfer: transfer,
	}
	if transfer {
		// The checkpoint's MD5 field carries the deploy-file's declared
		// checksum whatever the algorithm; resume only compares it against
		// the same helper, so sha256 sums ride the existing wire field.
		_, ck.MD5 = deployfile.ChecksumOfStep(c.Step)
	}
	for p, f := range afterFS {
		if underAny(p, exclude) {
			continue
		}
		old, existed := beforeFS[p]
		if existed && old == f {
			continue
		}
		ck.Files = append(ck.Files, store.DeployFile{
			Path: f.Path, Kind: int(f.Kind), Size: f.Size, MD5: f.MD5,
			Artifact: f.Artifact, New: !existed,
		})
	}
	sort.Slice(ck.Files, func(i, j int) bool { return ck.Files[i].Path < ck.Files[j].Path })
	for p := range beforeFS {
		if underAny(p, exclude) {
			continue
		}
		if _, ok := afterFS[p]; !ok {
			ck.Removed = append(ck.Removed, p)
		}
	}
	sort.Strings(ck.Removed)
	for dir, name := range afterSide.Unpacked {
		if underAny(dir, exclude) {
			continue
		}
		if beforeSide.Unpacked[dir] != name {
			ck.Unpacks = append(ck.Unpacks, store.DeployUnpack{Dir: dir, Artifact: name})
		}
	}
	sort.Slice(ck.Unpacks, func(i, j int) bool { return ck.Unpacks[i].Dir < ck.Unpacks[j].Dir })
	for dir, prefix := range afterSide.Prefixes {
		if underAny(dir, exclude) {
			continue
		}
		if beforeSide.Prefixes[dir] != prefix {
			ck.Prefixes = append(ck.Prefixes, store.DeployPrefix{Dir: dir, Prefix: prefix})
		}
	}
	sort.Slice(ck.Prefixes, func(i, j int) bool { return ck.Prefixes[i].Dir < ck.Prefixes[j].Dir })
	for name, home := range afterSide.Services {
		if underAny(home, exclude) {
			continue
		}
		if old, ok := beforeSide.Services[name]; !ok || old != home {
			ck.Services = append(ck.Services, store.DeployService{Name: name, Home: home})
		}
	}
	sort.Slice(ck.Services, func(i, j int) bool { return ck.Services[i].Name < ck.Services[j].Name })
	return ck
}

// buildRoots derives the directory roots a build owns from its resolved
// commands: every absolute base directory plus every absolute path bound
// in a step environment ($WORK_DIR, the type home, ...). Roots that are
// proper ancestors of another root are pruned so shared scaffolding
// (/tmp, the deployments dir) stays outside the claim — only the
// type-specific subdirectories are owned.
func buildRoots(cmds []deployfile.Command) []string {
	set := make(map[string]struct{})
	add := func(p string) {
		if p == "" || !strings.HasPrefix(p, "/") {
			return
		}
		if p = path.Clean(p); p != "/" {
			set[p] = struct{}{}
		}
	}
	for _, c := range cmds {
		add(c.BaseDir)
		for _, v := range c.Env {
			add(v)
		}
	}
	all := make([]string, 0, len(set))
	for p := range set {
		all = append(all, p)
	}
	sort.Strings(all)
	var roots []string
	for _, r := range all {
		ancestor := false
		for _, o := range all {
			if o != r && strings.HasPrefix(o, r+"/") {
				ancestor = true
				break
			}
		}
		if !ancestor {
			roots = append(roots, r)
		}
	}
	return roots
}

// otherRoots returns the roots owned by in-flight builds other than
// typeName, minus any root this build also claims (shared directories
// like the user home are never excluded from a diff).
func (s *Service) otherRoots(typeName string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	mine := make(map[string]struct{}, len(s.buildRoots[typeName]))
	for _, r := range s.buildRoots[typeName] {
		mine[r] = struct{}{}
	}
	var out []string
	for t, roots := range s.buildRoots {
		if t == typeName {
			continue
		}
		for _, r := range roots {
			if _, shared := mine[r]; !shared {
				out = append(out, r)
			}
		}
	}
	sort.Strings(out)
	return out
}

// underAny reports whether p is one of the roots or lies beneath one.
func underAny(p string, roots []string) bool {
	for _, r := range roots {
		if p == r || strings.HasPrefix(p, r+"/") {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Step executors: one opened session/kit per build, one call per step.

type stepExecutor interface {
	runStep(ctx context.Context, c deployfile.Command) (cog.Result, error)
}

// openExecutor brings up the method's session/kit, paying the fixed method
// overhead when this is the top-level build.
func (s *Service) openExecutor(method Method, chargeOverhead bool) (stepExecutor, cog.Result, error) {
	var res cog.Result
	switch method {
	case MethodExpect:
		sw := simclock.NewStopwatch(s.clock)
		login := expectLoginCost
		if !chargeOverhead {
			login = -1 // session reuse: no additional login cost
		}
		sess := expect.Open(s.site, s.clock, login)
		res.Overhead = sw.Elapsed()
		return &expectExecutor{svc: s, sess: sess}, res, nil
	case MethodCoG:
		cfg := cog.DefaultConfig()
		if !chargeOverhead {
			cfg.StartupOverhead = 0 // kit already started by the parent
		}
		sr := cog.NewRunner(cfg, s.clock, s.site.Repo).Open(s.site)
		res.Overhead = sr.Overhead
		return &cogExecutor{svc: s, sr: sr}, res, nil
	default:
		return nil, res, fmt.Errorf("rdm: unknown deployment method %q", method)
	}
}

// expectExecutor drives steps through the Expect virtual terminal; the
// paper's default deployment handler.
type expectExecutor struct {
	svc  *Service
	sess *expect.Session
}

func (e *expectExecutor) runStep(ctx context.Context, c deployfile.Command) (cog.Result, error) {
	s := e.svc
	var res cog.Result
	sw := simclock.NewStopwatch(s.clock)
	sh := e.sess.Shell()
	for k, v := range c.Env {
		sh.Setenv(k, v)
	}
	if c.BaseDir != "" {
		s.site.FS.Mkdir(c.BaseDir)
		if err := sh.Chdir(c.BaseDir); err != nil {
			return res, err
		}
	}
	if isTransferCmd(c.Cmdline) {
		// Transfers resolve through the artifact grid: local CAS, then
		// advertised holders and the blob's rendezvous home, then origin —
		// every rung verified against the deploy-file's declared checksum.
		if err := s.fetchArtifactVia(s.FTP, c); err != nil {
			return res, err
		}
		res.Communication = sw.Elapsed()
		return res, nil
	}
	var script expect.Script
	for _, d := range c.Dialog {
		script = append(script, expect.Step{Expect: d.Expect, Send: d.Send, Timeout: c.Timeout})
	}
	var err error
	if len(script) > 0 {
		_, err = e.sess.InteractContext(ctx, c.Cmdline, script)
	} else {
		_, err = e.sess.ExecContext(ctx, c.Cmdline)
	}
	if err != nil {
		return res, err
	}
	res.Installation = sw.Elapsed()
	return res, nil
}

// cogExecutor submits steps as GRAM jobs / proxied transfers.
type cogExecutor struct {
	svc *Service
	sr  *cog.StepRunner
}

func (e *cogExecutor) runStep(_ context.Context, c deployfile.Command) (cog.Result, error) {
	if isTransferCmd(c.Cmdline) {
		// Route transfers through the artifact grid, charging the CoG
		// kit's proxied transfer cost so Table 1's method gap survives.
		s := e.svc
		var res cog.Result
		sw := simclock.NewStopwatch(s.clock)
		if err := s.fetchArtifactVia(e.sr.FTP(), c); err != nil {
			return res, fmt.Errorf("cog: step %s: %w", c.Step.Name, err)
		}
		res.Communication = sw.Elapsed()
		return res, nil
	}
	return e.sr.RunStep(c)
}

// ---------------------------------------------------------------------------
// Error classification and backoff.

// isBuildCrash recognizes simulated daemon death (duck-typed so rdm does
// not import the fault injector).
func isBuildCrash(err error) bool {
	var bc interface{ BuildCrash() bool }
	return errors.As(err, &bc) && bc.BuildCrash()
}

// retryableStep reports whether a transfer failure is worth retrying: a
// torn download (md5 mismatch), an injected transient fault, or a
// transport-level outage. Permanent errors (unknown URL, no such object)
// fail the build immediately.
func retryableStep(err error) bool {
	var ce *gridftp.ChecksumError
	if errors.As(err, &ce) {
		return true
	}
	var tr interface{ Transient() bool }
	if errors.As(err, &tr) {
		return tr.Transient()
	}
	return transport.IsUnavailable(err)
}

// ---------------------------------------------------------------------------
// Status surface (glarectl, wire op, tests).

// QuarantineInfo describes one quarantined type.
type QuarantineInfo struct {
	Type      string
	Failures  int
	Until     time.Time
	Remaining time.Duration // zero once the cool-down lapsed
	// Preempted marks a quarantine imposed by an alert rule rather than
	// the consecutive-failure threshold.
	Preempted bool
}

// ResumableBuild describes an interrupted build with journaled
// checkpoints awaiting resume.
type ResumableBuild struct {
	Type  string
	Build string
	Steps int
}

// DeployRunStatus is the engine's admin-visible state.
type DeployRunStatus struct {
	Site        string
	MaxBuilds   int
	QueueDepth  int
	InFlight    []string
	Queued      int
	Quarantined []QuarantineInfo
	Resumable   []ResumableBuild
}

// DeployRunStatus reports in-flight builds, queue pressure, quarantined
// types and resumable checkpointed builds.
func (s *Service) DeployRunStatus() DeployRunStatus {
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := DeployRunStatus{
		Site:       s.site.Attrs.Name,
		MaxBuilds:  s.limits.MaxConcurrent,
		QueueDepth: s.limits.QueueDepth,
	}
	for name := range s.inflight {
		st.InFlight = append(st.InFlight, name)
	}
	sort.Strings(st.InFlight)
	_, st.Queued = s.gate.stats()
	for name, q := range s.quarantined {
		if q.fails < s.limits.QuarantineAfter {
			continue
		}
		info := QuarantineInfo{Type: name, Failures: q.fails, Until: q.until, Preempted: q.preempted}
		if q.until.After(now) {
			info.Remaining = q.until.Sub(now)
		}
		st.Quarantined = append(st.Quarantined, info)
	}
	sort.Slice(st.Quarantined, func(i, j int) bool { return st.Quarantined[i].Type < st.Quarantined[j].Type })
	for name, cks := range s.resume {
		if len(cks) == 0 {
			continue
		}
		st.Resumable = append(st.Resumable, ResumableBuild{
			Type: name, Build: cks[0].Build, Steps: len(cks),
		})
	}
	sort.Slice(st.Resumable, func(i, j int) bool { return st.Resumable[i].Type < st.Resumable[j].Type })
	return st
}

// DeployStatusXML renders the engine status for the wire op glarectl
// consumes.
func (s *Service) DeployStatusXML() *xmlutil.Node {
	st := s.DeployRunStatus()
	n := xmlutil.NewNode("DeployStatus")
	n.SetAttr("site", st.Site)
	n.SetAttr("maxBuilds", fmt.Sprintf("%d", st.MaxBuilds))
	n.SetAttr("queueDepth", fmt.Sprintf("%d", st.QueueDepth))
	n.SetAttr("queued", fmt.Sprintf("%d", st.Queued))
	for _, name := range st.InFlight {
		c := xmlutil.NewNode("Building")
		c.SetAttr("type", name)
		n.Add(c)
	}
	for _, q := range st.Quarantined {
		c := xmlutil.NewNode("Quarantined")
		c.SetAttr("type", q.Type)
		c.SetAttr("failures", fmt.Sprintf("%d", q.Failures))
		c.SetAttr("remainingMS", fmt.Sprintf("%d", q.Remaining.Milliseconds()))
		if q.Preempted {
			c.SetAttr("preempted", "true")
		}
		n.Add(c)
	}
	for _, r := range st.Resumable {
		c := xmlutil.NewNode("Resumable")
		c.SetAttr("type", r.Type)
		c.SetAttr("build", r.Build)
		c.SetAttr("steps", fmt.Sprintf("%d", r.Steps))
		n.Add(c)
	}
	return n
}
