package rdm

import (
	"context"
	"fmt"
	"path"
	"strconv"
	"strings"
	"time"

	"glare/internal/activity"
	"glare/internal/cog"
	"glare/internal/deployfile"
	"glare/internal/simclock"
	"glare/internal/site"
	"glare/internal/superpeer"
	"glare/internal/telemetry"
	"glare/internal/wsrf"
	"glare/internal/xmlutil"
)

// Timings is the per-phase breakdown of one on-demand deployment, matching
// the rows of Table 1 (all virtual time).
type Timings struct {
	TypeAddition   time.Duration
	Communication  time.Duration
	Installation   time.Duration
	Registration   time.Duration
	Notification   time.Duration
	MethodOverhead time.Duration
}

// Total is the "Total overhead for meta-scheduler" row.
func (t Timings) Total() time.Duration {
	return t.TypeAddition + t.Communication + t.Installation +
		t.Registration + t.Notification + t.MethodOverhead
}

func (t *Timings) add(o Timings) {
	t.TypeAddition += o.TypeAddition
	t.Communication += o.Communication
	t.Installation += o.Installation
	t.Registration += o.Registration
	t.Notification += o.Notification
	t.MethodOverhead += o.MethodOverhead
}

// DeployReport summarizes one on-demand deployment.
type DeployReport struct {
	Type        string
	Site        string
	Method      Method
	Deployments []*activity.Deployment
	Timings     Timings
}

// DeployOnDemand deploys a concrete activity type somewhere suitable in
// the VO — on this site when its constraints match, otherwise on an
// eligible peer — and returns the new deployments. The type is looked up
// once, anywhere in the VO.
func (s *Service) DeployOnDemand(typeName string, method Method) (*DeployReport, error) {
	t, ok := s.LookupType(typeName)
	if !ok {
		return nil, fmt.Errorf("rdm: unknown activity type %q", typeName)
	}
	return s.deployOnDemand(context.Background(), nil, t, method)
}

func (s *Service) deployOnDemand(ctx context.Context, parent *telemetry.Span, t *activity.Type, method Method) (report *DeployReport, err error) {
	sp := s.tel.StartSpan("rdm.DeployOnDemand", parent)
	sp.SetNote(t.Name)
	defer func() { sp.End(err) }()
	if t.Abstract {
		return nil, fmt.Errorf("rdm: cannot deploy abstract type %q", t.Name)
	}
	if t.Installation == nil {
		return nil, fmt.Errorf("rdm: type %q has no installation description", t.Name)
	}
	c := t.Installation.Constraints
	if s.site.Attrs.Matches(c.Platform, c.OS, c.Arch) {
		return s.deployLocal(sp, t, method, true)
	}
	// Find an eligible peer and hand the installation over to its RDM
	// ("it invokes [the] deployment handler on the target site").
	target, err := s.chooseTarget(ctx, sp, t)
	if err != nil {
		return nil, err
	}
	return s.deployRemote(ctx, sp, target, t, method)
}

// chooseTarget selects the best group peer for installing the type: the
// peers' attributes are filtered by the type's constraints and ranked by
// capacity (the brokerage half of "GridARM's resource brokerage").
func (s *Service) chooseTarget(ctx context.Context, sp *telemetry.Span, t *activity.Type) (superpeer.SiteInfo, error) {
	var peers []superpeer.SiteInfo
	var attrs []site.Attributes
	for _, peer := range s.view().Peers(s.selfName()) {
		resp, err := s.call(ctx, sp, peer.ServiceURL(ServiceName), "SiteAttrs", nil)
		if err != nil || resp == nil {
			continue
		}
		peers = append(peers, peer)
		attrs = append(attrs, attrsFromXML(resp))
	}
	i := bestTarget(attrs, t.Installation.Constraints)
	if i < 0 {
		return superpeer.SiteInfo{}, fmt.Errorf(
			"rdm: no site in reach satisfies constraints %+v of %q", t.Installation.Constraints, t.Name)
	}
	return peers[i], nil
}

// bestTarget returns the index of the best installation target among the
// sites satisfying c, or -1 when none does. Sites rank by capacity score:
// more and faster processors and more memory first, uptime next (long-lived
// sites are likelier to stay up), equal scores by name.
func bestTarget(sites []site.Attributes, c activity.Constraints) int {
	best, bestScore := -1, 0.0
	for i, a := range sites {
		if !a.Matches(c.Platform, c.OS, c.Arch) {
			continue
		}
		score := float64(a.Processors)*float64(a.ProcessorMHz)/1000 +
			float64(a.MemoryMB)/1024 +
			float64(a.UptimeHours)/1000
		if best < 0 || score > bestScore || score == bestScore && a.Name < sites[best].Name {
			best, bestScore = i, score
		}
	}
	return best
}

// attrsToXML encodes a site's attributes as the SiteAttrs answer: every
// field bestTarget ranks on.
func attrsToXML(a site.Attributes) *xmlutil.Node {
	return xmlutil.NewNode("Attrs").
		SetAttr("name", a.Name).
		SetAttr("platform", a.Platform).
		SetAttr("os", a.OS).
		SetAttr("arch", a.Arch).
		SetAttr("processors", strconv.Itoa(a.Processors)).
		SetAttr("mhz", strconv.Itoa(a.ProcessorMHz)).
		SetAttr("memoryMB", strconv.Itoa(a.MemoryMB)).
		SetAttr("uptimeHours", strconv.Itoa(a.UptimeHours))
}

// attrsFromXML parses a SiteAttrs answer.
func attrsFromXML(n *xmlutil.Node) site.Attributes {
	atoi := func(name string) int {
		v, _ := strconv.Atoi(n.AttrOr(name, "0"))
		return v
	}
	return site.Attributes{
		Name:         n.AttrOr("name", ""),
		Platform:     n.AttrOr("platform", ""),
		OS:           n.AttrOr("os", ""),
		Arch:         n.AttrOr("arch", ""),
		Processors:   atoi("processors"),
		ProcessorMHz: atoi("mhz"),
		MemoryMB:     atoi("memoryMB"),
		UptimeHours:  atoi("uptimeHours"),
	}
}

func (s *Service) deployRemote(ctx context.Context, sp *telemetry.Span, target superpeer.SiteInfo, t *activity.Type, method Method) (*DeployReport, error) {
	req := xmlutil.NewNode("Deploy")
	req.SetAttr("method", string(method))
	req.Add(t.ToXML())
	resp, err := s.call(ctx, sp, target.ServiceURL(ServiceName), "DeployLocal", req)
	if err != nil {
		return nil, fmt.Errorf("rdm: remote deployment on %s: %w", target.Name, err)
	}
	report := &DeployReport{Type: t.Name, Site: target.Name, Method: method}
	report.Deployments = deploymentsFromList(resp)
	report.Timings = timingsFromXML(resp.First("Timings"))
	// Cache the fresh deployments so subsequent lookups are local.
	for _, d := range report.Deployments {
		s.cacheDeployment(target, d)
	}
	return report, nil
}

// DeployLocal installs a concrete type on THIS site: dependencies first,
// then the type itself, then registration of the identified deployments.
func (s *Service) DeployLocal(t *activity.Type, method Method) (*DeployReport, error) {
	return s.deployLocal(nil, t, method, true)
}

// deployLocal is DeployLocal with control over the method overhead:
// dependency installations reuse the parent's Expect session / CoG kit, so
// only the top-level deployment pays the method's fixed cost (the paper's
// Table 1 charges the Expect/CoG overhead once per application).
func (s *Service) deployLocal(parent *telemetry.Span, t *activity.Type, method Method, chargeOverhead bool) (_ *DeployReport, err error) {
	sp := s.tel.StartSpan("rdm.deployLocal", parent)
	sp.SetNote(t.Name)
	s.tel.Counter("glare_rdm_deploys_total").Inc()
	defer func() {
		if err != nil {
			s.tel.Counter("glare_rdm_deploy_errors_total").Inc()
		}
		sp.End(err)
	}()
	if method == "" {
		method = MethodExpect
	}
	// Singleflight: if another request is already installing this type,
	// join the in-flight build and share its report instead of
	// double-installing (look-ahead scheduling races the regular resolution
	// path here by design). A quarantined type is refused before any work.
	call, join, jerr := s.joinOrLead(t.Name)
	if jerr != nil {
		return nil, jerr
	}
	if join != nil {
		return join()
	}

	report := &DeployReport{Type: t.Name, Site: s.site.Attrs.Name, Method: method}
	defer func() {
		if err != nil {
			s.finishCall(t.Name, call, nil, err)
		} else {
			s.finishCall(t.Name, call, report, nil)
		}
	}()

	// Admission: the site runs at most MaxConcurrent builds; excess waits
	// in a bounded FIFO queue and overflow is shed with Unavailable.
	// Dependency builds ride their parent's slot — acquiring another here
	// would deadlock the parent against its own children.
	if chargeOverhead {
		release, aerr := s.gate.acquire(s.site.Attrs.Name)
		if aerr != nil {
			s.deployTel.queueShed.Inc()
			return nil, aerr
		}
		s.deployTel.active.Inc()
		defer func() {
			s.deployTel.active.Dec()
			release()
		}()
	}

	// Constraint check against this site.
	if t.Installation != nil {
		c := t.Installation.Constraints
		if !s.site.Attrs.Matches(c.Platform, c.OS, c.Arch) {
			return nil, fmt.Errorf("rdm: site %s does not satisfy constraints of %q",
				s.site.Attrs.Name, t.Name)
		}
	}

	// Activity Type Addition: make the type known to this site's registry.
	sw := simclock.NewStopwatch(s.clock)
	if _, known := s.ATR.Lookup(t.Name); !known {
		s.clock.Sleep(typeAdditionCost)
		if _, err := s.RegisterType(t); err != nil {
			return nil, err
		}
	}
	report.Timings.TypeAddition = sw.Elapsed()

	// Dependencies: "it discovers Java and Ant activity types ... and
	// installs both ... automatically". Their cost folds into the parent's
	// phases.
	for _, depName := range t.Dependencies {
		if len(s.ADR.ByType(depName)) > 0 {
			continue // already deployed here
		}
		depType, ok := s.lookupType(context.Background(), sp, depName)
		if !ok {
			return nil, fmt.Errorf("rdm: dependency %q of %q not found in VO", depName, t.Name)
		}
		depReport, err := s.deployLocal(sp, depType, method, false)
		if err != nil {
			s.site.NotifyAdmin(
				fmt.Sprintf("installation failed: %s", t.Name),
				fmt.Sprintf("dependency %s failed: %v", depName, err))
			return nil, fmt.Errorf("rdm: deploying dependency %q: %w", depName, err)
		}
		report.Timings.add(depReport.Timings)
	}

	// Fetch and resolve the deploy-file.
	build, err := s.fetchBuild(t)
	if err != nil {
		return nil, err
	}
	cmds, err := build.Resolve(s.site.DefaultEnv())
	if err != nil {
		return nil, err
	}

	// Run the installation through the execution engine: checkpointed and
	// resumable, with per-step watchdog, transfer retry, and rollback of
	// the partial install on terminal failure.
	var run cog.Result
	run, err = s.runBuild(t.Name, build, cmds, method, chargeOverhead)
	if err != nil {
		if isBuildCrash(err) {
			// Simulated daemon death: checkpoints (and their journal
			// records) stay intact so the restarted site resumes the build
			// at its first incomplete step. No admin mail from a dead
			// process, no quarantine strike.
			return nil, fmt.Errorf("rdm: installing %q: %w", t.Name, err)
		}
		s.noteBuildFailure(t.Name)
		s.site.NotifyAdmin(
			fmt.Sprintf("installation failed: %s", t.Name),
			fmt.Sprintf("deploy-file %s failed on %s: %v; contact the activity provider",
				t.Installation.DeployFileURL, s.site.Attrs.Name, err))
		return nil, fmt.Errorf("rdm: installing %q: %w", t.Name, err)
	}
	report.Timings.Communication += run.Communication
	report.Timings.Installation += run.Installation
	report.Timings.MethodOverhead += run.Overhead

	// Identify and register the new deployments.
	sw.Reset()
	s.clock.Sleep(registrationCost)
	deps, err := s.identifyAndRegister(t)
	if err != nil {
		return nil, err
	}
	report.Timings.Registration += sw.Elapsed()
	report.Deployments = deps

	// Mark deployed and notify.
	sw.Reset()
	s.clock.Sleep(notificationCost)
	if err := s.ATR.MarkDeployed(t.Name, s.site.Attrs.Name); err != nil {
		return nil, err
	}
	msg := xmlutil.NewNode("Deployed")
	msg.SetAttr("type", t.Name)
	msg.SetAttr("site", s.site.Attrs.Name)
	s.broker.Publish(wsrf.TopicDeployment, t.Name, msg)
	report.Timings.Notification += sw.Elapsed()

	// Only now — with the deployments registered and announced — are the
	// build's checkpoints dropped; a crash anywhere before this line leaves
	// a journal the restarted site resumes from. Success also resets the
	// type's failure streak.
	s.clearCheckpoints(t.Name)
	s.noteBuildSuccess(t.Name)
	return report, nil
}

// fetchBuild resolves the provider's deploy-file for a type.
func (s *Service) fetchBuild(t *activity.Type) (*deployfile.Build, error) {
	if t.Installation == nil || t.Installation.DeployFileURL == "" {
		return nil, fmt.Errorf("rdm: type %q has no deploy-file", t.Name)
	}
	if s.deployFiles == nil {
		return nil, fmt.Errorf("rdm: no deploy-file resolver configured")
	}
	return s.deployFiles(t.Installation.DeployFileURL)
}

func isTransferCmd(cmdline string) bool {
	f := strings.Fields(cmdline)
	return len(f) > 0 && (f[0] == "globus-url-copy" || strings.HasSuffix(f[0], "/globus-url-copy"))
}

// identifyAndRegister finds the deployments produced by an installation —
// from the artifact's executables under the deployment home ("exploring
// [the] bin sub directory of the deployed activity home") and its exposed
// services — and registers them in the local ADR.
func (s *Service) identifyAndRegister(t *activity.Type) ([]*activity.Deployment, error) {
	artifactName := t.Artifact
	if artifactName == "" {
		artifactName = t.Name
	}
	home := path.Join(s.site.DefaultEnv()["DEPLOYMENT_DIR"], strings.ToLower(artifactName))
	var out []*activity.Deployment
	for _, f := range s.site.FS.Executables(home) {
		d := &activity.Deployment{
			Name: path.Base(f.Path), Type: t.Name, Kind: activity.KindExecutable,
			Site: s.site.Attrs.Name, Path: f.Path, Home: home,
		}
		if existing, ok := s.ADR.Get(d.Name); ok && existing.Type == t.Name {
			out = append(out, existing)
			continue
		}
		if _, err := s.ADR.Register(d); err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	if a, ok := s.site.Repo.ByName(artifactName); ok {
		for _, svc := range a.Services {
			if !s.site.HasService(svc) {
				continue
			}
			addr := s.agent.Self().ServiceURL(svc)
			d := &activity.Deployment{
				Name: svc, Type: t.Name, Kind: activity.KindService,
				Site: s.site.Attrs.Name, Address: addr, Home: home,
			}
			if existing, ok := s.ADR.Get(d.Name); ok && existing.Type == t.Name {
				out = append(out, existing)
				continue
			}
			if _, err := s.ADR.Register(d); err != nil {
				return nil, err
			}
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("rdm: installation of %q produced no deployments", t.Name)
	}
	return out, nil
}

// Undeploy removes a deployment (paper §6 future work): the registry entry
// is destroyed, the executable removed from the site, the container
// service withdrawn.
func (s *Service) Undeploy(name string) error {
	d, ok := s.ADR.Get(name)
	if !ok {
		return fmt.Errorf("rdm: no such deployment %q", name)
	}
	s.tel.Counter("glare_rdm_undeploys_total").Inc()
	switch d.Kind {
	case activity.KindExecutable:
		s.site.FS.Remove(d.Path)
	case activity.KindService:
		s.site.UndeployService(d.Name)
	}
	if !s.ADR.Remove(name) {
		return fmt.Errorf("rdm: removing %q from registry failed", name)
	}
	// A reservation must not outlive what it reserves: every outstanding
	// lease ticket on the removed deployment is released and journaled.
	if ids := s.Leases.ReleaseByDeployment(name); len(ids) > 0 {
		s.tel.Counter("glare_rdm_undeploy_leases_released_total").Add(uint64(len(ids)))
	}
	s.depCache.Invalidate("dep:" + name)
	return nil
}

// Migrate moves a (failed) deployment to another eligible site: "if a
// deployment fails on one site, it can be moved to another site."
func (s *Service) Migrate(name string, method Method) (*DeployReport, error) {
	d, ok := s.ADR.Get(name)
	if !ok {
		return nil, fmt.Errorf("rdm: no such deployment %q", name)
	}
	t, ok := s.LookupType(d.Type)
	if !ok {
		return nil, fmt.Errorf("rdm: type %q of deployment %q not found", d.Type, name)
	}
	if t.Installation == nil {
		return nil, fmt.Errorf("rdm: type %q cannot be reinstalled automatically", d.Type)
	}
	target, err := s.chooseTarget(context.Background(), nil, t)
	if err != nil {
		return nil, err
	}
	if err := s.Undeploy(name); err != nil {
		return nil, err
	}
	return s.deployRemote(context.Background(), nil, target, t, method)
}

// Instantiate runs an executable deployment as a GRAM job (or touches a
// service deployment), enforcing leases and recording the metrics the
// Deployment Status Monitor exposes. ticketID 0 means unleased use, which
// is allowed only when no exclusive lease is active.
func (s *Service) Instantiate(name, client string, ticketID uint64, args string) error {
	d, ok := s.ADR.Get(name)
	if !ok {
		return fmt.Errorf("rdm: no such deployment %q", name)
	}
	s.tel.Counter("glare_rdm_instantiations_total").Inc()
	if ticketID != 0 {
		if err := s.Leases.Authorize(ticketID, client, name); err != nil {
			return err
		}
	} else if inUse, exclusive := s.Leases.InUse(name); inUse && exclusive {
		return fmt.Errorf("rdm: deployment %q is exclusively leased", name)
	}
	start := s.clock.Now()
	var code int
	switch d.Kind {
	case activity.KindExecutable:
		_, c, err := s.Jobs.SubmitWait(d.Path+" "+args, d.Home, d.Env)
		code = c
		if err != nil {
			code = 1
		}
	case activity.KindService:
		if !s.site.HasService(d.Name) {
			return fmt.Errorf("rdm: service %q is not hosted here", d.Name)
		}
		s.clock.Sleep(30 * time.Millisecond)
	}
	m := d.Metrics
	m.LastExecutionTime = s.clock.Now().Sub(start)
	m.LastReturnCode = code
	m.LastInvocation = s.clock.Now()
	m.Invocations++
	if err := s.ADR.UpdateMetrics(name, m); err != nil {
		return err
	}
	if code != 0 {
		return fmt.Errorf("rdm: instantiation of %q exited with code %d", name, code)
	}
	return nil
}

func timingsFromXML(n *xmlutil.Node) Timings {
	var t Timings
	if n == nil {
		return t
	}
	get := func(name string) time.Duration {
		var ms int64
		fmt.Sscanf(n.ChildText(name), "%d", &ms)
		return time.Duration(ms) * time.Millisecond
	}
	t.TypeAddition = get("TypeAddition")
	t.Communication = get("Communication")
	t.Installation = get("Installation")
	t.Registration = get("Registration")
	t.Notification = get("Notification")
	t.MethodOverhead = get("MethodOverhead")
	return t
}

func (t Timings) toXML() *xmlutil.Node {
	n := xmlutil.NewNode("Timings")
	n.Elem("TypeAddition", fmt.Sprintf("%d", t.TypeAddition.Milliseconds()))
	n.Elem("Communication", fmt.Sprintf("%d", t.Communication.Milliseconds()))
	n.Elem("Installation", fmt.Sprintf("%d", t.Installation.Milliseconds()))
	n.Elem("Registration", fmt.Sprintf("%d", t.Registration.Milliseconds()))
	n.Elem("Notification", fmt.Sprintf("%d", t.Notification.Milliseconds()))
	n.Elem("MethodOverhead", fmt.Sprintf("%d", t.MethodOverhead.Milliseconds()))
	return n
}
