package rdm

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"glare/internal/faultinject"
	"glare/internal/gridftp"
	"glare/internal/simclock"
	"glare/internal/site"
	"glare/internal/store"
	"glare/internal/transport"
	"glare/internal/workload"
)

// deployEngine builds a standalone durable RDM with a chaos injector wired
// into the deployment execution engine. hookCalls counts step-hook fires,
// i.e. how many build steps actually started executing.
type deployEngine struct {
	svc       *Service
	chaos     *faultinject.DeployChaos
	resolver  *workload.Resolver
	hookCalls atomic.Int64
}

func newDeployEngine(t testing.TB, dir string, v *simclock.Virtual, limits DeployLimits) *deployEngine {
	t.Helper()
	st := site.New(site.Attributes{
		Name: "solo.uibk", ProcessorMHz: 1500, MemoryMB: 2048,
		Platform: "Intel", OS: "Linux", Arch: "32bit",
	}, v, site.StandardUniverse())
	resolver := workload.NewResolver(st.Repo)
	durable, err := store.Open(store.Options{Dir: dir, Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	e := &deployEngine{chaos: faultinject.NewDeployChaos(), resolver: resolver}
	cfg := soloConfig(st, v)
	cfg.DeployFiles = resolver.Fetch
	cfg.Store = durable
	cfg.Deploy = limits
	cfg.DeployHook = func(ctx context.Context, typeName, stepName string) error {
		e.hookCalls.Add(1)
		return e.chaos.Step(ctx, typeName, stepName)
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Stop)
	e.svc = svc
	return e
}

func registerEvaluation(t testing.TB, s *Service) {
	t.Helper()
	for _, ty := range workload.EvaluationTypes() {
		if _, err := s.RegisterType(ty); err != nil {
			t.Fatal(err)
		}
	}
}

// buildOutcome is the externally observable result of an installation: the
// registered deployments and the complete site filesystem.
type buildOutcome struct {
	deployments []string
	fs          map[string]site.File
}

func outcomeOf(s *Service) buildOutcome {
	var deps []string
	for _, d := range s.ADR.All() {
		deps = append(deps, fmt.Sprintf("%s|%v|%s|%s", d.Name, d.Kind, d.Path, d.Home))
	}
	sort.Strings(deps)
	return buildOutcome{deployments: deps, fs: s.site.FS.Entries()}
}

func wien2kSteps(t testing.TB) []string {
	t.Helper()
	repo := site.StandardUniverse()
	a, ok := repo.ByName("Wien2k")
	if !ok {
		t.Fatal("no Wien2k artifact in the standard universe")
	}
	b := workload.SynthesizeBuild(a)
	names := make([]string, len(b.Steps))
	for i, s := range b.Steps {
		names[i] = s.Name
	}
	return names
}

// TestDeployResumeAfterCrashProperty is the resume property test: crashing
// the site daemon at EVERY step boundary and restarting must produce
// exactly the same registered deployments and on-disk tree as a build that
// was never interrupted — and already-verified downloads must not be
// transferred again.
func TestDeployResumeAfterCrashProperty(t *testing.T) {
	steps := wien2kSteps(t)
	if len(steps) < 4 {
		t.Fatalf("Wien2k pipeline too short to exercise resume: %v", steps)
	}

	// Reference: one uninterrupted build.
	refClock := simclock.NewVirtual(time.Time{})
	ref := newDeployEngine(t, t.TempDir(), refClock, DeployLimits{})
	registerEvaluation(t, ref.svc)
	if _, err := ref.svc.DeployOnDemand("Wien2k", MethodExpect); err != nil {
		t.Fatal(err)
	}
	want := outcomeOf(ref.svc)
	if len(want.deployments) == 0 {
		t.Fatal("reference build registered no deployments")
	}

	downloadIndex := -1
	for i, name := range steps {
		if name == "Download" {
			downloadIndex = i
		}
	}
	if downloadIndex < 0 {
		t.Fatalf("no Download step in %v", steps)
	}

	for i, stepName := range steps {
		t.Run(fmt.Sprintf("crash-at-%02d-%s", i, stepName), func(t *testing.T) {
			dir := t.TempDir()
			v := simclock.NewVirtual(time.Time{})

			// First life: the daemon dies right before executing step i.
			e1 := newDeployEngine(t, dir, v, DeployLimits{})
			registerEvaluation(t, e1.svc)
			e1.chaos.CrashStep("Wien2k", stepName)
			_, err := e1.svc.DeployOnDemand("Wien2k", MethodExpect)
			if err == nil {
				t.Fatal("crashed build reported success")
			}
			var bc interface{ BuildCrash() bool }
			if !errors.As(err, &bc) || !bc.BuildCrash() {
				t.Fatalf("crash surfaced as %v, want a BuildCrash fault", err)
			}
			e1.svc.Stop()

			// Second life: fresh process, fresh (memory-only) filesystem,
			// same journal. No chaos armed.
			e2 := newDeployEngine(t, dir, v, DeployLimits{})
			st := e2.svc.DeployRunStatus()
			if i == 0 {
				if len(st.Resumable) != 0 {
					t.Fatalf("crash before any step left resumable builds: %+v", st.Resumable)
				}
			} else {
				if len(st.Resumable) != 1 || st.Resumable[0].Type != "Wien2k" || st.Resumable[0].Steps != i {
					t.Fatalf("resumable after restart = %+v, want Wien2k with %d steps", st.Resumable, i)
				}
			}
			if _, err := e2.svc.DeployOnDemand("Wien2k", MethodExpect); err != nil {
				t.Fatalf("resumed build failed: %v", err)
			}

			got := outcomeOf(e2.svc)
			if !reflect.DeepEqual(got.deployments, want.deployments) {
				t.Fatalf("deployments after resume = %v, want %v", got.deployments, want.deployments)
			}
			if !reflect.DeepEqual(got.fs, want.fs) {
				t.Fatalf("filesystem after resume diverged from uninterrupted build:\n got %d entries\nwant %d entries",
					len(got.fs), len(want.fs))
			}

			skipped := e2.svc.deployTel.stepsSkipped.Value()
			resumes := e2.svc.deployTel.resumes.Value()
			if skipped != uint64(i) {
				t.Fatalf("glare_deploy_steps_skipped_total = %d, want %d", skipped, i)
			}
			wantResumes := uint64(0)
			if i > 0 {
				wantResumes = 1
			}
			if resumes != wantResumes {
				t.Fatalf("glare_deploy_resumes_total = %d, want %d", resumes, wantResumes)
			}
			// A checkpointed, md5-verified download must never re-transfer.
			transfers, _ := e2.svc.FTP.Stats()
			wantTransfers := 1
			if i > downloadIndex {
				wantTransfers = 0
			}
			if transfers != wantTransfers {
				t.Fatalf("resumed build made %d transfer(s), want %d", transfers, wantTransfers)
			}

			// Success clears the checkpoints — also in the journal, so a
			// third life has nothing left to resume.
			if st := e2.svc.DeployRunStatus(); len(st.Resumable) != 0 {
				t.Fatalf("checkpoints survived a completed build: %+v", st.Resumable)
			}
			if i == len(steps)-1 {
				e2.svc.Stop()
				e3 := newDeployEngine(t, dir, v, DeployLimits{})
				if st := e3.svc.DeployRunStatus(); len(st.Resumable) != 0 {
					t.Fatalf("journal still resumable after completed build: %+v", st.Resumable)
				}
				if got := outcomeOf(e3.svc); !reflect.DeepEqual(got.deployments, want.deployments) {
					t.Fatalf("third life lost deployments: %v", got.deployments)
				}
			}
		})
	}
}

// TestDeployRollbackOnTerminalFailure proves a build that fails for good
// leaves no trace: created files, services and bookkeeping are undone and
// nothing is left to resume.
func TestDeployRollbackOnTerminalFailure(t *testing.T) {
	v := simclock.NewVirtual(time.Time{})
	e := newDeployEngine(t, t.TempDir(), v, DeployLimits{})
	registerEvaluation(t, e.svc)
	before := e.svc.site.FS.Entries()

	// A non-transfer step's failure is terminal (retry covers transfers
	// only), so the partial install must be rolled back.
	e.chaos.FailStep("Wien2k", "Configure", 1)
	if _, err := e.svc.DeployOnDemand("Wien2k", MethodExpect); err == nil {
		t.Fatal("failed build reported success")
	}

	after := e.svc.site.FS.Entries()
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("rollback left filesystem residue: before=%d entries, after=%d entries",
			len(before), len(after))
	}
	if deps := e.svc.ADR.All(); len(deps) != 0 {
		t.Fatalf("rollback left %d registered deployment(s)", len(deps))
	}
	if st := e.svc.DeployRunStatus(); len(st.Resumable) != 0 {
		t.Fatalf("terminal failure left resumable checkpoints: %+v", st.Resumable)
	}
	if got := e.svc.deployTel.rollbacks.Value(); got != 1 {
		t.Fatalf("glare_deploy_rollbacks_total = %d, want 1", got)
	}

	// The build is clean to retry: without the fault it succeeds.
	e.chaos.Clear()
	if _, err := e.svc.DeployOnDemand("Wien2k", MethodExpect); err != nil {
		t.Fatal(err)
	}
}

// TestDeployDedupConcurrent proves two simultaneous requests for the same
// type run ONE build: the follower shares the leader's report and the
// archive is downloaded exactly once.
func TestDeployDedupConcurrent(t *testing.T) {
	v := simclock.NewVirtual(time.Time{})
	e := newDeployEngine(t, t.TempDir(), v, DeployLimits{})
	registerEvaluation(t, e.svc)

	// Stretch the build in real time so the duplicate truly overlaps.
	e.chaos.DelayStep("Wien2k", "Expand", 150*time.Millisecond)

	var wg sync.WaitGroup
	reports := make([]*DeployReport, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == 1 {
				time.Sleep(30 * time.Millisecond) // let the leader start
			}
			reports[i], errs[i] = e.svc.DeployOnDemand("Wien2k", MethodExpect)
		}(i)
	}
	wg.Wait()

	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if reports[i] == nil || reports[i].Type != "Wien2k" || len(reports[i].Deployments) == 0 {
			t.Fatalf("request %d got report %+v", i, reports[i])
		}
	}
	if got := e.svc.deployTel.dedupHits.Value(); got != 1 {
		t.Fatalf("glare_deploy_dedup_hits_total = %d, want 1", got)
	}
	if transfers, _ := e.svc.FTP.Stats(); transfers != 1 {
		t.Fatalf("duplicate requests made %d transfers, want 1", transfers)
	}
}

// TestDeployQueueShed proves admission control: with one build slot and no
// queue, a second concurrent build of a different type is shed with
// transport.Unavailable instead of piling up.
func TestDeployQueueShed(t *testing.T) {
	v := simclock.NewVirtual(time.Time{})
	e := newDeployEngine(t, t.TempDir(), v, DeployLimits{
		MaxConcurrent: 1,
		QueueDepth:    -1, // no waiting at all
	})
	registerEvaluation(t, e.svc)

	e.chaos.DelayStep("Wien2k", "Init", 300*time.Millisecond)
	done := make(chan error, 1)
	go func() {
		_, err := e.svc.DeployOnDemand("Wien2k", MethodExpect)
		done <- err
	}()
	time.Sleep(60 * time.Millisecond) // leader holds the only slot

	_, err := e.svc.DeployOnDemand("Invmod", MethodExpect)
	if !transport.IsUnavailable(err) {
		t.Fatalf("overflow build got %v, want transport.Unavailable", err)
	}
	if !strings.Contains(err.Error(), "deploy-queue-full") {
		t.Fatalf("shed reason missing from %v", err)
	}
	if got := e.svc.deployTel.queueShed.Value(); got != 1 {
		t.Fatalf("glare_deploy_queue_shed_total = %d, want 1", got)
	}
	if err := <-done; err != nil {
		t.Fatalf("leader build failed: %v", err)
	}
	// With the slot free again the shed type deploys fine.
	if _, err := e.svc.DeployOnDemand("Invmod", MethodExpect); err != nil {
		t.Fatal(err)
	}
}

// TestDeployTransferRetry proves transient download faults are absorbed by
// per-step retry with backoff instead of failing the build.
func TestDeployTransferRetry(t *testing.T) {
	v := simclock.NewVirtual(time.Time{})
	e := newDeployEngine(t, t.TempDir(), v, DeployLimits{
		Retry: transport.RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, Multiplier: 2},
	})
	registerEvaluation(t, e.svc)

	e.chaos.FailStep("Wien2k", "Download", 2)
	if _, err := e.svc.DeployOnDemand("Wien2k", MethodExpect); err != nil {
		t.Fatalf("build with 2 transient transfer faults failed: %v", err)
	}
	if got := e.svc.deployTel.stepRetries.Value(); got != 2 {
		t.Fatalf("glare_deploy_step_retries_total = %d, want 2", got)
	}

	// A third consecutive fault exhausts MaxAttempts and the build fails.
	e2 := newDeployEngine(t, t.TempDir(), simclock.NewVirtual(time.Time{}), DeployLimits{
		Retry: transport.RetryPolicy{MaxAttempts: 2, BaseDelay: 10 * time.Millisecond, Multiplier: 2},
	})
	registerEvaluation(t, e2.svc)
	e2.chaos.FailStep("Wien2k", "Download", 5)
	if _, err := e2.svc.DeployOnDemand("Wien2k", MethodExpect); err == nil {
		t.Fatal("build survived more faults than retry attempts")
	}
}

// TestDeployHungStepWatchdog proves a step that stops responding is killed
// at its timeout plus grace, and the partial install is rolled back.
func TestDeployHungStepWatchdog(t *testing.T) {
	v := simclock.NewVirtual(time.Time{})
	e := newDeployEngine(t, t.TempDir(), v, DeployLimits{StepGrace: 50 * time.Millisecond})
	registerEvaluation(t, e.svc)

	// Shrink the deploy-file's step timeouts: the watchdog runs in real
	// time and the stock 2-minute default would stall the test.
	b, err := e.resolver.Fetch(workload.DeployFileURL("Wien2k"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range b.Steps {
		b.Steps[i].Timeout = 50 * time.Millisecond
	}
	e.chaos.HangStep("Wien2k", "Configure", 1)

	start := time.Now()
	_, derr := e.svc.DeployOnDemand("Wien2k", MethodExpect)
	elapsed := time.Since(start)
	if derr == nil {
		t.Fatal("hung build reported success")
	}
	if !strings.Contains(derr.Error(), "deadline") && !strings.Contains(derr.Error(), "killed") &&
		!strings.Contains(derr.Error(), "hung") {
		t.Fatalf("hung step surfaced as %v, want a watchdog kill", derr)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("watchdog took %v to kill a 100ms-budget step", elapsed)
	}
	if got := e.svc.deployTel.rollbacks.Value(); got != 1 {
		t.Fatalf("glare_deploy_rollbacks_total = %d, want 1", got)
	}
}

// TestDeployQuarantineLifecycle walks the full quarantine arc: repeated
// failures arm it, requests during cool-down are refused without touching
// the site, the cool-down lapse admits one probe, and a success clears the
// streak.
func TestDeployQuarantineLifecycle(t *testing.T) {
	v := simclock.NewVirtual(time.Time{})
	e := newDeployEngine(t, t.TempDir(), v, DeployLimits{
		QuarantineAfter:    3,
		QuarantineCooldown: time.Minute,
	})
	registerEvaluation(t, e.svc)

	e.chaos.FailStep("Wien2k", "Expand", 100)
	for i := 0; i < 3; i++ {
		if _, err := e.svc.DeployOnDemand("Wien2k", MethodExpect); err == nil {
			t.Fatalf("attempt %d succeeded despite injected fault", i+1)
		}
	}
	if got := e.svc.deployTel.quarantined.Value(); got != 1 {
		t.Fatalf("glare_deploy_quarantined_total = %d, want 1", got)
	}

	// Inside the cool-down the type is refused outright: no build step
	// may even start.
	hooks := e.hookCalls.Load()
	_, err := e.svc.DeployOnDemand("Wien2k", MethodExpect)
	if err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("deploy during cool-down got %v, want quarantine refusal", err)
	}
	if e.hookCalls.Load() != hooks {
		t.Fatal("quarantined deploy still executed build steps")
	}

	st := e.svc.DeployRunStatus()
	if len(st.Quarantined) != 1 || st.Quarantined[0].Type != "Wien2k" ||
		st.Quarantined[0].Failures != 3 || st.Quarantined[0].Remaining <= 0 {
		t.Fatalf("quarantine status = %+v", st.Quarantined)
	}
	// The admin surface carries it too.
	xml := e.svc.DeployStatusXML().String()
	if !strings.Contains(xml, "Quarantined") || !strings.Contains(xml, "Wien2k") {
		t.Fatalf("DeployStatus XML misses the quarantine: %s", xml)
	}

	// Cool-down over: one probe goes through; with the fault gone it
	// succeeds and clears the streak.
	v.Advance(2 * time.Minute)
	e.chaos.Clear()
	if _, err := e.svc.DeployOnDemand("Wien2k", MethodExpect); err != nil {
		t.Fatalf("probe build after cool-down failed: %v", err)
	}
	if st := e.svc.DeployRunStatus(); len(st.Quarantined) != 0 {
		t.Fatalf("success did not clear the quarantine: %+v", st.Quarantined)
	}
}

// TestRetryableStepClassification pins the engine's error taxonomy: torn
// transfers and transient faults retry, everything else is terminal.
func TestRetryableStepClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{&gridftp.ChecksumError{}, true},
		{fmt.Errorf("wrapped: %w", &gridftp.ChecksumError{}), true},
		{&faultinject.BuildFault{Mode: faultinject.BuildFail}, true},
		{&faultinject.BuildFault{Mode: faultinject.BuildCrash}, false},
		{&transport.Unavailable{Address: "x", Operation: "op"}, true},
		{errors.New("no such archive"), false},
		{fmt.Errorf("step Deploy: %w", errors.New("ant: build.xml missing")), false},
	}
	for i, c := range cases {
		if got := retryableStep(c.err); got != c.want {
			t.Errorf("case %d (%v): retryableStep = %v, want %v", i, c.err, got, c.want)
		}
	}
	if !isBuildCrash(&faultinject.BuildFault{Mode: faultinject.BuildCrash}) {
		t.Error("BuildCrash fault not recognized as crash")
	}
	if isBuildCrash(&faultinject.BuildFault{Mode: faultinject.BuildFail}) {
		t.Error("transient fault misclassified as crash")
	}
}

// TestRetryDelayBackoff pins the deterministic (jitter-free) backoff curve.
func TestRetryDelayBackoff(t *testing.T) {
	p := transport.RetryPolicy{BaseDelay: 10 * time.Millisecond, Multiplier: 2, MaxDelay: 35 * time.Millisecond}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 35 * time.Millisecond, 35 * time.Millisecond}
	for i, w := range want {
		if got := p.Delay(i+1, nil); got != w {
			t.Errorf("Delay(attempt=%d, nil) = %v, want %v", i+1, got, w)
		}
	}
}

// BenchmarkDeployCold measures a from-scratch Wien2k installation;
// steps/build counts executed pipeline steps.
func BenchmarkDeployCold(b *testing.B) {
	steps := len(wien2kSteps(b))
	for i := 0; i < b.N; i++ {
		v := simclock.NewVirtual(time.Time{})
		e := newDeployEngine(b, b.TempDir(), v, DeployLimits{})
		registerEvaluation(b, e.svc)
		if _, err := e.svc.DeployOnDemand("Wien2k", MethodExpect); err != nil {
			b.Fatal(err)
		}
		if skipped := e.svc.deployTel.stepsSkipped.Value(); skipped != 0 {
			b.Fatalf("cold build skipped %d steps", skipped)
		}
		e.svc.Stop()
	}
	b.ReportMetric(float64(steps), "steps/build")
	b.ReportMetric(0, "skipped/build")
}

// BenchmarkDeployResumed measures resuming a build that crashed at its
// last step: all checkpointed steps replay, only the tail executes.
func BenchmarkDeployResumed(b *testing.B) {
	steps := wien2kSteps(b)
	last := steps[len(steps)-1]
	var skipped uint64
	for i := 0; i < b.N; i++ {
		v := simclock.NewVirtual(time.Time{})
		dir := b.TempDir()

		b.StopTimer()
		e1 := newDeployEngine(b, dir, v, DeployLimits{})
		registerEvaluation(b, e1.svc)
		e1.chaos.CrashStep("Wien2k", last)
		if _, err := e1.svc.DeployOnDemand("Wien2k", MethodExpect); err == nil {
			b.Fatal("crash injection missed")
		}
		e1.svc.Stop()
		b.StartTimer()

		e2 := newDeployEngine(b, dir, v, DeployLimits{})
		if _, err := e2.svc.DeployOnDemand("Wien2k", MethodExpect); err != nil {
			b.Fatal(err)
		}
		skipped = e2.svc.deployTel.stepsSkipped.Value()
		e2.svc.Stop()
	}
	b.ReportMetric(float64(len(steps))-float64(skipped), "steps/build")
	b.ReportMetric(float64(skipped), "skipped/build")
}
