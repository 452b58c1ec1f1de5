package glare

import (
	"sync"
	"testing"

	"glare/internal/gridftp"
)

// flashInstall builds a K-site grid (one peer group) and has every site
// deploy the same release concurrently. It returns the grid, the per-URL
// origin transfer totals summed across all sites, and each site's report.
func flashInstall(t *testing.T, k int) (*Grid, map[string]int, []*DeployReport) {
	t.Helper()
	g := newGrid(t, GridOptions{Sites: k, GroupSize: k})
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	if err := g.Client(0).RegisterTypes(EvaluationTypes()...); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	reports := make([]*DeployReport, k)
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = g.Client(i).Deploy("Wien2k", MethodExpect)
		}(i)
	}
	wg.Wait()
	for i := 0; i < k; i++ {
		if errs[i] != nil || reports[i] == nil || len(reports[i].Deployments) == 0 {
			t.Fatalf("site %d flash deploy: report=%+v err=%v", i, reports[i], errs[i])
		}
	}
	perURL := map[string]int{}
	for i := 0; i < k; i++ {
		for url, n := range g.OriginFetches(i) {
			perURL[url] += n
		}
	}
	return g, perURL, reports
}

// originBytes sums the bytes every site's direct GridFTP client moved from
// origin (the quantity the artifact grid exists to bound).
func originBytes(g *Grid) int64 {
	var total int64
	for i := 0; i < g.Sites(); i++ {
		total += g.vo.Nodes[i].RDM.FTP.SourceStats()[gridftp.OriginSource].Bytes
	}
	return total
}

// TestFlashInstallBoundsOriginTransfers is the artifact-grid acceptance
// path: K sites concurrently install the same release; the rendezvous home
// pulls the archive from origin once (under a per-key singleflight) and
// every other site peer-fetches it, so the origin sees at most two
// transfers per distinct blob — one happy-path pull plus at most one
// racing direct fetch by the home's own build — regardless of K.
func TestFlashInstallBoundsOriginTransfers(t *testing.T) {
	const k = 6
	g, perURL, reports := flashInstall(t, k)

	if len(perURL) == 0 {
		t.Fatal("flash install recorded no origin transfers at all")
	}
	for url, n := range perURL {
		if n > 2 {
			t.Fatalf("origin transfers for %s = %d with K=%d, want <= 2", url, n, k)
		}
	}
	var peer, verify, misses uint64
	for i := 0; i < k; i++ {
		st := g.ArtifactStats(i)
		if st.Budget <= 0 {
			t.Fatalf("site %d reports artifact budget %d, want the default", i, st.Budget)
		}
		peer += st.PeerFetches
		verify += st.VerifyFailures
		misses += st.Misses
	}
	// At least K-2 sites were served by peers, every served copy verified.
	if peer < k-2 {
		t.Fatalf("peer fetches = %d, want >= %d (origin not offloaded)", peer, k-2)
	}
	if verify != 0 {
		t.Fatalf("verify failures = %d during a clean flash install", verify)
	}
	if misses == 0 {
		t.Fatal("no CAS misses recorded — the ladder never ran")
	}

	// Warm grid: tear the installs down (the CAS keeps its blobs) and
	// redeploy everywhere. Every transfer step is now a local hit: zero
	// new origin transfers, zero new origin bytes — trivially under the
	// 25% warm/cold acceptance bound.
	coldBytes := originBytes(g)
	if coldBytes == 0 {
		t.Fatal("cold flash install moved no origin bytes")
	}
	for i := 0; i < k; i++ {
		for _, d := range reports[i].Deployments {
			if err := g.Client(i).Undeploy(d.Name); err != nil {
				t.Fatalf("site %d undeploy %s: %v", i, d.Name, err)
			}
		}
	}
	for i := 0; i < k; i++ {
		if _, err := g.Client(i).Deploy("Wien2k", MethodExpect); err != nil {
			t.Fatalf("site %d warm redeploy: %v", i, err)
		}
		if st := g.ArtifactStats(i); st.Hits == 0 {
			t.Fatalf("site %d warm redeploy missed its local CAS: %+v", i, st)
		}
	}
	warmPerURL := map[string]int{}
	for i := 0; i < k; i++ {
		for url, n := range g.OriginFetches(i) {
			warmPerURL[url] += n
		}
	}
	for url, n := range warmPerURL {
		if n != perURL[url] {
			t.Fatalf("warm redeploy re-fetched %s from origin (%d -> %d)", url, perURL[url], n)
		}
	}
	if warmDelta := originBytes(g) - coldBytes; warmDelta*4 >= coldBytes {
		t.Fatalf("warm origin bytes %d not under 25%% of cold %d", warmDelta, coldBytes)
	}
}

// TestFlashInstallOriginCountConstantAsGridGrows pins the scaling claim:
// the per-blob origin transfer total obeys the same <=2 bound at K=3 and
// K=6 — origin load does not grow with the number of installing sites.
func TestFlashInstallOriginCountConstantAsGridGrows(t *testing.T) {
	for _, k := range []int{3, 6} {
		g, perURL, _ := flashInstall(t, k)
		for url, n := range perURL {
			if n > 2 {
				t.Fatalf("K=%d: origin transfers for %s = %d, want <= 2", k, url, n)
			}
		}
		g.Close()
	}
}

// TestCorruptedPeerCopyFallsBackToOrigin fault-injects bit rot into a
// holder's CAS: the requester rejects the rotted copy at verification,
// drops the stale location, and completes the build from origin — the
// install succeeds, the corruption is only visible as a verify-failure
// counter and one extra origin transfer.
func TestCorruptedPeerCopyFallsBackToOrigin(t *testing.T) {
	g := newGrid(t, GridOptions{Sites: 2, GroupSize: 2})
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	if err := g.Client(0).RegisterTypes(EvaluationTypes()...); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Client(0).Deploy("Invmod", MethodExpect); err != nil {
		t.Fatal(err)
	}
	holdings := g.vo.Nodes[0].RDM.ArtifactHoldings()
	if len(holdings) == 0 {
		t.Fatal("deploy ingested nothing into site 0's CAS")
	}
	for _, e := range holdings {
		if !g.CorruptArtifact(0, e.Key.Algo, e.Key.Sum) {
			t.Fatalf("could not corrupt %s", e.Key)
		}
	}
	// One anti-entropy pass teaches site 1 that site 0 holds the blob, so
	// its ladder provably tries the (rotted) peer copy first.
	g.vo.Nodes[1].RDM.SyncRegistries()

	if _, err := g.Client(1).Deploy("Invmod", MethodExpect); err != nil {
		t.Fatalf("deploy must survive a rotted peer copy: %v", err)
	}
	st := g.ArtifactStats(1)
	if st.VerifyFailures == 0 {
		t.Fatalf("rotted peer copy was not detected: %+v", st)
	}
	if st.PeerFetches != 0 {
		t.Fatalf("rotted copy was ingested as a peer fetch: %+v", st)
	}
	var total int
	for _, n := range g.OriginFetches(1) {
		total += n
	}
	if total == 0 {
		t.Fatal("fallback to origin never happened")
	}
}

// TestCrashedTransferResumesFromRestoredCAS extends the PR 5 resume
// property into the artifact grid: a build crashes at its Download step
// (no checkpoint for the transfer exists), the site restarts, the store
// WAL restores the CAS — and the resumed build satisfies its transfer
// with a local hit: zero origin transfers, zero bytes moved.
func TestCrashedTransferResumesFromRestoredCAS(t *testing.T) {
	g := newGrid(t, GridOptions{
		Sites:        3,
		DataDir:      t.TempDir(),
		DisableCache: true,
	})
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	installer := g.Client(1)
	if err := installer.RegisterTypes(EvaluationTypes()...); err != nil {
		t.Fatal(err)
	}

	// First life: a full install seeds the CAS (and its WAL records).
	rep, err := installer.Deploy("Wien2k", MethodExpect)
	if err != nil {
		t.Fatal(err)
	}
	if st := g.ArtifactStats(1); st.Entries == 0 {
		t.Fatalf("install ingested nothing: %+v", st)
	}
	// Tear the install down; the CAS keeps the blob.
	for _, d := range rep.Deployments {
		if err := installer.Undeploy(d.Name); err != nil {
			t.Fatal(err)
		}
	}

	// Second life: the daemon dies at the Download step itself, so no
	// checkpoint covers the transfer.
	g.CrashBuildStep(1, "Wien2k", "Download")
	if _, err := installer.Deploy("Wien2k", MethodExpect); err == nil {
		t.Fatal("crashed deployment reported success")
	}
	g.StopSite(1)
	if err := g.RestartSite(1); err != nil {
		t.Fatal(err)
	}
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	recovered := g.Client(1)

	// The WAL restored the blob into the recovered site's CAS.
	if st := g.ArtifactStats(1); st.Entries == 0 {
		t.Fatalf("restart lost the CAS: %+v", st)
	}
	if _, err := recovered.Deploy("Wien2k", MethodExpect); err != nil {
		t.Fatalf("resumed deployment failed: %v", err)
	}
	// The re-run Download was a CAS hit: the recovered site's fresh GridFTP
	// client moved nothing at all.
	if transfers, bytes := g.vo.Nodes[1].RDM.FTP.Stats(); transfers != 0 || bytes != 0 {
		t.Fatalf("resumed build transferred %d archive(s) (%d bytes), want 0", transfers, bytes)
	}
	if st := g.ArtifactStats(1); st.Hits == 0 {
		t.Fatalf("resumed Download did not hit the restored CAS: %+v", st)
	}
}

// TestKillSiteDestroysCASButRestartRestoresIt pins the lifecycle contract:
// RestartSite replays the CAS from the WAL; KillSite deletes the data
// directory, so a replacement site comes back with an empty store.
func TestKillSiteDestroysCASButRestartRestoresIt(t *testing.T) {
	g := newGrid(t, GridOptions{Sites: 3, DataDir: t.TempDir(), DisableCache: true})
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	if err := g.Client(1).RegisterTypes(EvaluationTypes()...); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Client(1).Deploy("Invmod", MethodExpect); err != nil {
		t.Fatal(err)
	}
	if st := g.ArtifactStats(1); st.Entries == 0 {
		t.Fatal("deploy ingested nothing")
	}
	g.StopSite(1)
	if err := g.RestartSite(1); err != nil {
		t.Fatal(err)
	}
	if st := g.ArtifactStats(1); st.Entries == 0 {
		t.Fatalf("restart lost the CAS: %+v", st)
	}
	if err := g.KillSite(1); err != nil {
		t.Fatal(err)
	}
	if err := g.ReplaceSite(1); err != nil {
		t.Fatal(err)
	}
	if st := g.ArtifactStats(1); st.Entries != 0 {
		t.Fatalf("permanent loss kept CAS blobs: %+v", st)
	}
}
