package site

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"glare/internal/simclock"
)

func testSite() (*Site, *simclock.Virtual) {
	v := simclock.NewVirtual(time.Time{})
	s := New(Attributes{
		Name: "altix1.uibk", ProcessorMHz: 1500, MemoryMB: 4096,
		UptimeHours: 1200, Processors: 16,
		Platform: "Intel", OS: "Linux", Arch: "32bit",
	}, v, StandardUniverse())
	return s, v
}

func TestRankDeterministicAndDistinct(t *testing.T) {
	a := Attributes{Name: "a", ProcessorMHz: 100}
	b := Attributes{Name: "b", ProcessorMHz: 100}
	if a.Rank() != a.Rank() {
		t.Fatal("rank must be deterministic")
	}
	if a.Rank() == b.Rank() {
		t.Fatal("different sites should rank differently")
	}
}

func TestRankQuickDistribution(t *testing.T) {
	// Property: distinct names yield distinct ranks (hash behaves).
	seen := map[uint64]string{}
	f := func(name string) bool {
		a := Attributes{Name: name}
		r := a.Rank()
		if prev, ok := seen[r]; ok {
			return prev == name
		}
		seen[r] = name
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMatches(t *testing.T) {
	a := Attributes{Platform: "Intel", OS: "Linux", Arch: "32bit"}
	cases := []struct {
		p, o, r string
		want    bool
	}{
		{"", "", "", true},
		{"Intel", "Linux", "32bit", true},
		{"AMD", "", "", false},
		{"", "Solaris", "", false},
		{"Intel", "Linux", "64bit", false},
	}
	for _, c := range cases {
		if got := a.Matches(c.p, c.o, c.r); got != c.want {
			t.Errorf("Matches(%q,%q,%q) = %v", c.p, c.o, c.r, got)
		}
	}
}

func TestFSBasics(t *testing.T) {
	fs := NewFS()
	fs.Mkdir("/a/b/c")
	if !fs.IsDir("/a") || !fs.IsDir("/a/b/c") {
		t.Fatal("mkdir -p failed")
	}
	fs.Write("/a/b/f.txt", KindFile, 100, "m", "")
	if e := fs.Stat("/a/b/f.txt"); e == nil || e.Size != 100 {
		t.Fatal("write/stat failed")
	}
	if _, err := fs.MustStat("/nope"); err == nil {
		t.Fatal("MustStat must fail on missing")
	}
	ls := fs.List("/a/b")
	if len(ls) != 2 { // c dir + f.txt
		t.Fatalf("list = %d entries", len(ls))
	}
	n := fs.Remove("/a")
	if n < 4 || fs.Exists("/a") {
		t.Fatalf("remove: %d removed, exists=%v", n, fs.Exists("/a"))
	}
	if fs.Remove("/") != 0 {
		t.Fatal("removing root must be refused")
	}
}

func TestFSExecutables(t *testing.T) {
	fs := NewFS()
	fs.Write("/opt/app/bin/tool", KindExecutable, 10, "", "App")
	fs.Write("/opt/app/bin/sub/tool2", KindExecutable, 10, "", "App")
	fs.Write("/opt/app/doc.txt", KindFile, 10, "", "App")
	ex := fs.Executables("/opt/app")
	if len(ex) != 2 {
		t.Fatalf("executables = %d", len(ex))
	}
	if len(fs.Executables("/elsewhere")) != 0 {
		t.Fatal("wrong subtree")
	}
}

func TestFSPathCleaning(t *testing.T) {
	fs := NewFS()
	fs.Write("a//b/../c.txt", KindFile, 1, "", "")
	if !fs.Exists("/a/c.txt") {
		t.Fatal("path not cleaned")
	}
}

func TestShellEnvExpansion(t *testing.T) {
	s, _ := testSite()
	sh := s.NewShell()
	sh.Setenv("FOO", "bar")
	if got := sh.expand("x/$FOO/${FOO}y/$MISSING/z$"); got != "x/bar/bary//z$" {
		t.Fatalf("expand = %q", got)
	}
}

func TestShellMkdirAndLs(t *testing.T) {
	s, _ := testSite()
	sh := s.NewShell()
	if _, code, err := sh.Run("mkdir-p /data/in /data/out"); code != 0 || err != nil {
		t.Fatalf("mkdir: %d %v", code, err)
	}
	out, code, _ := sh.Run("ls /data")
	if code != 0 || len(out) != 2 {
		t.Fatalf("ls: %v", out)
	}
}

func TestShellUnknownCommand(t *testing.T) {
	s, _ := testSite()
	sh := s.NewShell()
	_, code, err := sh.Run("frobnicate --now")
	if code == 0 || err == nil {
		t.Fatal("unknown command must fail")
	}
	if !strings.Contains(err.Error(), "command not found") {
		t.Fatalf("err = %v", err)
	}
}

func TestShellChdir(t *testing.T) {
	s, _ := testSite()
	sh := s.NewShell()
	if err := sh.Chdir("/tmp"); err != nil {
		t.Fatal(err)
	}
	if sh.cwd != "/tmp" {
		t.Fatalf("cwd = %s", sh.cwd)
	}
	if err := sh.Chdir("/no/such"); err == nil {
		t.Fatal("chdir to missing dir must fail")
	}
}

// fetchArtifact simulates a completed globus-url-copy of an artifact.
func fetchArtifact(s *Site, name, dst string) {
	a, ok := s.Repo.ByName(name)
	if !ok {
		panic("unknown artifact " + name)
	}
	s.FS.Write(dst, KindFile, a.SizeBytes, a.MD5(), a.Name)
}

func TestTarConfigureMakeInstallFlow(t *testing.T) {
	s, v := testSite()
	sh := s.NewShell()
	sh.AutoAnswer = true
	s.FS.Mkdir("/tmp/povray")
	fetchArtifact(s, "POVray", "/tmp/povray/povray.tgz")
	if err := sh.Chdir("/tmp/povray"); err != nil {
		t.Fatal(err)
	}
	if _, code, err := sh.Run("tar xvfz povray.tgz"); code != 0 {
		t.Fatalf("tar failed: %v", err)
	}
	if !s.FS.Exists("/tmp/povray/povray-3.6.1/configure") {
		t.Fatal("sources not expanded")
	}
	if err := sh.Chdir("povray-3.6.1"); err != nil {
		t.Fatal(err)
	}
	// make before configure must fail for dialog-bearing artifacts.
	if _, code, _ := sh.Run("make"); code == 0 {
		t.Fatal("make before configure must fail")
	}
	t0 := v.Now()
	if _, code, err := sh.Run("./configure --prefix=/opt/glare/deployments/povray"); code != 0 {
		t.Fatalf("configure: %v", err)
	}
	if _, code, err := sh.Run("make"); code != 0 {
		t.Fatalf("make: %v", err)
	}
	if _, code, err := sh.Run("make install"); code != 0 {
		t.Fatalf("make install: %v", err)
	}
	if !s.FS.Exists("/opt/glare/deployments/povray/bin/povray") {
		t.Fatal("binary not installed")
	}
	e := s.FS.Stat("/opt/glare/deployments/povray/bin/povray")
	if e.Kind != KindExecutable {
		t.Fatal("installed binary not executable")
	}
	// Virtual time advanced by at least configure+build+install costs.
	a, _ := s.Repo.ByName("POVray")
	minCost := a.ConfigureCost + a.BuildCost + a.InstallCost
	if got := v.Now().Sub(t0); got < minCost {
		t.Fatalf("virtual cost %v < %v", got, minCost)
	}
}

func TestInteractiveConfigureRejectsWrongAnswer(t *testing.T) {
	s, _ := testSite()
	sh := s.NewShell()
	s.FS.Mkdir("/tmp/p")
	fetchArtifact(s, "POVray", "/tmp/p/p.tgz")
	sh.Chdir("/tmp/p")
	sh.Run("tar xvfz p.tgz")
	sh.Chdir("povray-3.6.1")
	p := sh.Spawn("./configure")
	// Answer the license prompt wrongly.
	go func() {
		for range p.Out() {
		}
	}()
	p.Send("n")
	p.Send("personal")
	p.Send("")
	if code := p.Wait(); code == 0 {
		t.Fatal("wrong license answer must abort installation")
	}
}

func TestAntRequiresToolchain(t *testing.T) {
	s, _ := testSite()
	sh := s.NewShell()
	sh.AutoAnswer = true
	s.FS.Mkdir("/tmp/j")
	fetchArtifact(s, "JPOVray", "/tmp/j/j.tgz")
	sh.Chdir("/tmp/j")
	sh.Run("tar xvfz j.tgz")
	sh.Chdir("jpovray-1.0")
	if _, code, err := sh.Run("ant Deploy"); code == 0 {
		t.Fatalf("ant without toolchain must fail, got success (%v)", err)
	}
	// Install Ant and Java, then it must work.
	installToolchain(t, s)
	if _, code, err := sh.Run("ant Deploy"); code != 0 {
		t.Fatalf("ant with toolchain failed: %v", err)
	}
	if !s.FS.Exists("/opt/glare/deployments/jpovray/bin/jpovray") {
		t.Fatal("jpovray not installed")
	}
	if !s.HasService("WS-JPOVray") {
		t.Fatal("service deployment not registered in container")
	}
}

func installToolchain(t *testing.T, s *Site) {
	t.Helper()
	sh := s.NewShell()
	sh.AutoAnswer = true
	s.FS.Mkdir("/tmp/tc")
	fetchArtifact(s, "Java", "/tmp/tc/jdk.tgz")
	fetchArtifact(s, "Ant", "/tmp/tc/ant.tgz")
	sh.Chdir("/tmp/tc")
	if _, code, err := sh.Run("tar xvfz jdk.tgz"); code != 0 {
		t.Fatalf("tar jdk: %v", err)
	}
	if _, code, err := sh.Run("sh jdk-1.4.2/install.sh /opt/glare/deployments/java"); code != 0 {
		t.Fatalf("jdk install: %v", err)
	}
	if _, code, err := sh.Run("tar xvfz ant.tgz"); code != 0 {
		t.Fatalf("tar ant: %v", err)
	}
	sh.Chdir("apache-ant-1.6.5")
	if _, code, err := sh.Run("make install"); code != 0 {
		t.Fatalf("ant install: %v", err)
	}
}

func TestExecInstalledBinary(t *testing.T) {
	s, _ := testSite()
	installToolchain(t, s)
	sh := s.NewShell()
	out, code, err := sh.Run("java -version")
	if code != 0 || err != nil {
		t.Fatalf("exec java: %v", err)
	}
	if len(out) == 0 || !strings.Contains(out[0], "java") {
		t.Fatalf("out = %v", out)
	}
	// Running a plain file must fail.
	s.FS.Write("/tmp/data.txt", KindFile, 1, "", "")
	if _, code, _ := sh.Run("/tmp/data.txt"); code == 0 {
		t.Fatal("executing a data file must fail")
	}
}

func TestServicesContainer(t *testing.T) {
	s, _ := testSite()
	s.DeployService("WS-JPOVray", "/opt/x")
	if !s.HasService("WS-JPOVray") {
		t.Fatal("service missing")
	}
	if got := s.Services(); len(got) != 1 || got[0] != "WS-JPOVray" {
		t.Fatalf("services = %v", got)
	}
	if !s.UndeployService("WS-JPOVray") || s.UndeployService("WS-JPOVray") {
		t.Fatal("undeploy semantics wrong")
	}
}

func TestAdminNotices(t *testing.T) {
	s, _ := testSite()
	s.NotifyAdmin("install failed", "POVray on altix1")
	ns := s.Notices()
	if len(ns) != 1 || ns[0].Subject != "install failed" {
		t.Fatalf("notices = %v", ns)
	}
}

func TestGlobusURLCopyLocalFile(t *testing.T) {
	s, _ := testSite()
	sh := s.NewShell()
	s.FS.Write("/tmp/src.dat", KindFile, 1024, "md", "")
	if _, code, err := sh.Run("globus-url-copy file:///tmp/src.dat file:///tmp/dst.dat"); code != 0 {
		t.Fatalf("local copy: %v", err)
	}
	if e := s.FS.Stat("/tmp/dst.dat"); e == nil || e.Size != 1024 {
		t.Fatal("copy did not materialize")
	}
}

func TestGlobusURLCopyRemoteWithoutTransferFails(t *testing.T) {
	s, _ := testSite()
	sh := s.NewShell()
	if _, code, _ := sh.Run("globus-url-copy http://x/y file:///tmp/y"); code == 0 {
		t.Fatal("remote copy without transfer service must fail")
	}
}

func TestDefaultEnv(t *testing.T) {
	s, _ := testSite()
	env := s.DefaultEnv()
	for _, k := range []string{"DEPLOYMENT_DIR", "USER_HOME", "GLOBUS_SCRATCH_DIR", "GLOBUS_LOCATION"} {
		if env[k] == "" {
			t.Errorf("default env %s missing", k)
		}
	}
}
