package gridftp

import (
	"strings"
	"testing"
	"time"

	"glare/internal/simclock"
	"glare/internal/site"
	"glare/internal/telemetry"
)

func fixture() (*Client, *site.Site, *simclock.Virtual) {
	v := simclock.NewVirtual(time.Time{})
	repo := site.StandardUniverse()
	s := site.New(site.Attributes{Name: "dst"}, v, repo)
	c := NewClient(v, repo, CostModel{LatencyPerTransfer: 100 * time.Millisecond, BytesPerMS: 1 << 20})
	return c, s, v
}

func TestFetchMaterializesFileAndChargesCost(t *testing.T) {
	c, s, v := fixture()
	a, _ := s.Repo.ByName("POVray")
	t0 := v.Now()
	if err := c.Fetch(a.URL, s, "/tmp/povray.tgz"); err != nil {
		t.Fatal(err)
	}
	e := s.FS.Stat("/tmp/povray.tgz")
	if e == nil || e.Size != a.SizeBytes || e.Artifact != "POVray" {
		t.Fatalf("entry = %+v", e)
	}
	want := 100*time.Millisecond + time.Duration(a.SizeBytes/(1<<20))*time.Millisecond
	if got := v.Now().Sub(t0); got != want {
		t.Fatalf("cost = %v, want %v", got, want)
	}
	n, b := c.Stats()
	if n != 1 || b != a.SizeBytes {
		t.Fatalf("stats = %d, %d", n, b)
	}
}

func TestFetchUnknownURL(t *testing.T) {
	c, s, _ := fixture()
	if err := c.Fetch("http://nowhere/else.tgz", s, "/tmp/x"); err == nil {
		t.Fatal("unknown URL must fail")
	}
	if err := c.Fetch("not-a-url", s, "/tmp/x"); err == nil || !strings.Contains(err.Error(), "not a URL") {
		t.Fatalf("bad URL error = %v", err)
	}
}

func TestThirdPartyTransfer(t *testing.T) {
	c, dst, v := fixture()
	src := site.New(site.Attributes{Name: "src"}, v, dst.Repo)
	src.FS.Write("/data/result.png", site.KindFile, 2<<20, "sum", "")
	if err := c.ThirdParty(src, "/data/result.png", dst, "/home/glare/result.png"); err != nil {
		t.Fatal(err)
	}
	if e := dst.FS.Stat("/home/glare/result.png"); e == nil || e.Size != 2<<20 {
		t.Fatal("third-party copy failed")
	}
	if err := c.ThirdParty(src, "/missing", dst, "/x"); err == nil {
		t.Fatal("missing source must fail")
	}
}

func TestAttachEnablesShellCopy(t *testing.T) {
	c, s, _ := fixture()
	c.Attach(s)
	sh := s.NewShell()
	a, _ := s.Repo.ByName("Counter")
	if _, code, err := sh.Run("globus-url-copy " + a.URL + " file:///tmp/counter.tgz"); code != 0 {
		t.Fatalf("shell copy: %v", err)
	}
	if !s.FS.Exists("/tmp/counter.tgz") {
		t.Fatal("file not transferred")
	}
}

func TestCostModelDefaults(t *testing.T) {
	if DefaultCost.Duration(0) != DefaultCost.LatencyPerTransfer {
		t.Fatal("zero-size transfer should cost just latency")
	}
	zero := CostModel{}
	if zero.Duration(10<<20) <= 0 {
		t.Fatal("zero model must fall back to default bandwidth")
	}
	v := simclock.NewVirtual(time.Time{})
	c := NewClient(v, site.NewRepo(), CostModel{})
	if c.cost != DefaultCost {
		t.Fatal("empty cost model must default")
	}
}

func TestDurationRoundsUp(t *testing.T) {
	c := CostModel{LatencyPerTransfer: 10 * time.Millisecond, BytesPerMS: 1 << 20}
	// A 1-byte file occupies a full millisecond of channel time.
	if got := c.Duration(1); got != 11*time.Millisecond {
		t.Fatalf("1-byte transfer = %v, want 11ms", got)
	}
	// One byte over a bandwidth boundary rounds up to the next ms.
	if got := c.Duration(1<<20 + 1); got != 12*time.Millisecond {
		t.Fatalf("1MiB+1 transfer = %v, want 12ms", got)
	}
	if got := c.Duration(1 << 20); got != 11*time.Millisecond {
		t.Fatalf("exact 1MiB transfer = %v, want 11ms", got)
	}
	// BytesPerMS <= 0 falls back to the default bandwidth, still rounded up.
	zero := CostModel{}
	if got := zero.Duration(1); got != time.Millisecond {
		t.Fatalf("fallback 1-byte transfer = %v, want 1ms", got)
	}
	neg := CostModel{LatencyPerTransfer: time.Millisecond, BytesPerMS: -5}
	want := time.Millisecond + time.Duration((10<<20+DefaultCost.BytesPerMS-1)/DefaultCost.BytesPerMS)*time.Millisecond
	if got := neg.Duration(10 << 20); got != want {
		t.Fatalf("negative-bandwidth fallback = %v, want %v", got, want)
	}
}

func TestFetchSumPrefersDeclaredAlgo(t *testing.T) {
	c, s, _ := fixture()
	a, _ := s.Repo.ByName("Ant")
	if err := c.FetchSum(a.URL, s, "/tmp/a1.tgz", "sha256", a.SHA256()); err != nil {
		t.Fatal(err)
	}
	err := c.FetchSum(a.URL, s, "/tmp/a2.tgz", "sha256", "deadbeef")
	if err == nil || !strings.Contains(err.Error(), "sha256 mismatch") {
		t.Fatalf("sha256 mismatch error = %v", err)
	}
	if s.FS.Exists("/tmp/a2.tgz") {
		t.Fatal("mismatching copy must be removed")
	}
	// Empty sum skips verification.
	if err := c.FetchSum(a.URL, s, "/tmp/a3.tgz", "sha256", ""); err != nil {
		t.Fatal(err)
	}
}

func TestSourceAccounting(t *testing.T) {
	c, s, _ := fixture()
	a, _ := s.Repo.ByName("Ant")
	if err := c.Fetch(a.URL, s, "/tmp/ant.tgz"); err != nil {
		t.Fatal(err)
	}
	c.PeerCopy("peer.site", s, "/tmp/ant2.tgz", a.SizeBytes, a.MD5(), a.Name)
	if _, err := c.Pull(a.URL); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Pull("http://nowhere/x.tgz"); err == nil {
		t.Fatal("pull of unknown URL must fail")
	}
	stats := c.SourceStats()
	if got := stats[OriginSource]; got.Transfers != 2 || got.Bytes != 2*a.SizeBytes {
		t.Fatalf("origin stats = %+v", got)
	}
	if got := stats["peer.site"]; got.Transfers != 1 || got.Bytes != a.SizeBytes {
		t.Fatalf("peer stats = %+v", got)
	}
	if got := c.OriginFetches()[a.URL]; got != 2 {
		t.Fatalf("origin fetches for %s = %d, want 2", a.URL, got)
	}
	if !s.FS.Exists("/tmp/ant2.tgz") {
		t.Fatal("peer copy must materialize the file")
	}
}

func TestTransferTelemetryCounters(t *testing.T) {
	c, s, _ := fixture()
	tel := telemetry.New("dst")
	c.SetTelemetry(tel)
	a, _ := s.Repo.ByName("Ant")
	if err := c.Fetch(a.URL, s, "/tmp/ant.tgz"); err != nil {
		t.Fatal(err)
	}
	c.PeerCopy("peer.site", s, "/tmp/ant2.tgz", a.SizeBytes, a.MD5(), a.Name)
	if got := tel.Counter("glare_gridftp_transfers_total").Value(); got != 2 {
		t.Fatalf("transfers counter = %d, want 2", got)
	}
	if got := tel.Counter("glare_gridftp_bytes_total").Value(); got != uint64(2*a.SizeBytes) {
		t.Fatalf("bytes counter = %d, want %d", got, 2*a.SizeBytes)
	}
}
