// Package gridftp simulates the GridFTP data-movement substrate: transfers
// of installation archives and data files onto a site's virtual
// filesystem, with a latency + bandwidth cost model advancing the virtual
// clock.
//
// Table 1's "Communication Overhead" rows are the time GridFTP spends
// moving deploy-files, sources and libraries to the target site, so the
// cost model is the load-bearing part; bytes never actually move.
package gridftp

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"glare/internal/simclock"
	"glare/internal/site"
	"glare/internal/telemetry"
)

// CostModel parameterizes transfer timing.
type CostModel struct {
	// LatencyPerTransfer is the fixed setup cost (control channel,
	// authentication) paid once per transfer.
	LatencyPerTransfer time.Duration
	// BytesPerMS is effective throughput in bytes per virtual millisecond.
	BytesPerMS int64
}

// DefaultCost approximates a well-connected national grid: ~80 ms setup,
// ~10 MB/s effective throughput.
var DefaultCost = CostModel{LatencyPerTransfer: 80 * time.Millisecond, BytesPerMS: 10 << 10}

// Duration computes the virtual time to move size bytes. Bandwidth time
// rounds up: any non-empty transfer occupies at least one millisecond of
// channel time, so a 1-byte file never rides for free.
func (c CostModel) Duration(size int64) time.Duration {
	bp := c.BytesPerMS
	if bp <= 0 {
		bp = DefaultCost.BytesPerMS
	}
	d := c.LatencyPerTransfer
	if size > 0 {
		d += time.Duration((size+bp-1)/bp) * time.Millisecond
	}
	return d
}

// OriginSource labels transfers served by the software repository itself
// in per-source accounting, as opposed to a named peer site.
const OriginSource = "origin"

// SourceStat tallies transfers attributed to one source.
type SourceStat struct {
	Transfers int
	Bytes     int64
}

// Client performs transfers into sites. One client is shared VO-wide.
type Client struct {
	mu    sync.Mutex
	clock simclock.Clock
	repo  *site.Repo
	cost  CostModel

	transfers int
	bytes     int64
	sources   map[string]*SourceStat
	originBy  map[string]int // origin fetches per source URL

	telTransfers *telemetry.Counter
	telBytes     *telemetry.Counter
}

// SetTelemetry exports the client's transfer tallies as
// glare_gridftp_transfers_total / glare_gridftp_bytes_total counters.
func (c *Client) SetTelemetry(tel *telemetry.Telemetry) {
	if tel == nil {
		return
	}
	c.mu.Lock()
	c.telTransfers = tel.Counter("glare_gridftp_transfers_total")
	c.telBytes = tel.Counter("glare_gridftp_bytes_total")
	c.mu.Unlock()
}

// account records one completed transfer of size bytes from source.
func (c *Client) account(source string, size int64) {
	c.mu.Lock()
	c.transfers++
	c.bytes += size
	if c.sources == nil {
		c.sources = map[string]*SourceStat{}
	}
	st := c.sources[source]
	if st == nil {
		st = &SourceStat{}
		c.sources[source] = st
	}
	st.Transfers++
	st.Bytes += size
	tt, tb := c.telTransfers, c.telBytes
	c.mu.Unlock()
	tt.Inc()
	tb.Add(uint64(size))
}

func (c *Client) accountOrigin(srcURL string, size int64) {
	c.account(OriginSource, size)
	c.mu.Lock()
	if c.originBy == nil {
		c.originBy = map[string]int{}
	}
	c.originBy[srcURL]++
	c.mu.Unlock()
}

// NewClient builds a transfer client over the software universe.
func NewClient(clock simclock.Clock, repo *site.Repo, cost CostModel) *Client {
	if clock == nil {
		clock = simclock.Real
	}
	if cost == (CostModel{}) {
		cost = DefaultCost
	}
	return &Client{clock: clock, repo: repo, cost: cost}
}

// Fetch transfers the object at srcURL into dst's filesystem at dstPath.
// Repository URLs resolve through the software universe; anything else is
// an error (the VO has no other data sources).
func (c *Client) Fetch(srcURL string, dst *site.Site, dstPath string) error {
	if !strings.Contains(srcURL, "://") {
		return fmt.Errorf("gridftp: %q is not a URL", srcURL)
	}
	a, ok := c.repo.ByURL(srcURL)
	if !ok {
		return fmt.Errorf("gridftp: no such object: %s", srcURL)
	}
	c.clock.Sleep(c.cost.Duration(a.SizeBytes))
	dst.FS.Write(dstPath, site.KindFile, a.SizeBytes, a.MD5(), a.Name)
	c.accountOrigin(srcURL, a.SizeBytes)
	return nil
}

// FetchSum is Fetch plus verification of the named checksum algorithm
// ("md5" or "sha256") against the declared sum; an empty sum skips
// verification. The mismatching copy is removed before the error returns.
func (c *Client) FetchSum(srcURL string, dst *site.Site, dstPath, algo, sum string) error {
	if err := c.Fetch(srcURL, dst, dstPath); err != nil {
		return err
	}
	if sum == "" {
		return nil
	}
	got := ""
	if a, ok := c.repo.ByURL(srcURL); ok {
		got = a.Checksum(algo)
	}
	if got != sum {
		dst.FS.Remove(dstPath)
		return &ChecksumError{URL: srcURL, Algo: algo, Want: sum, Got: got}
	}
	return nil
}

// Pull charges an origin transfer of the artifact at srcURL without
// materializing a filesystem entry: the receiving site is ingesting the
// blob straight into its content-addressed store on behalf of a peer
// (pull-through), not installing it.
func (c *Client) Pull(srcURL string) (*site.Artifact, error) {
	a, ok := c.repo.ByURL(srcURL)
	if !ok {
		return nil, fmt.Errorf("gridftp: no such object: %s", srcURL)
	}
	c.clock.Sleep(c.cost.Duration(a.SizeBytes))
	c.accountOrigin(srcURL, a.SizeBytes)
	return a, nil
}

// PeerCopy charges a transfer of size bytes received from peer site
// `source` and writes the content into dst at dstPath. The caller has
// already verified the peer copy's checksum against the declared sum.
func (c *Client) PeerCopy(source string, dst *site.Site, dstPath string, size int64, md5, artifact string) {
	c.clock.Sleep(c.cost.Duration(size))
	dst.FS.Write(dstPath, site.KindFile, size, md5, artifact)
	c.account(source, size)
}

// ChecksumError reports a transfer whose content fingerprint did not match
// the deploy-file's declared checksum. It is retryable: the archive may
// have been torn in flight, and a fresh fetch can still produce the right
// bits.
type ChecksumError struct {
	URL  string
	Algo string // "" means md5
	Want string
	Got  string
}

func (e *ChecksumError) Error() string {
	algo := e.Algo
	if algo == "" {
		algo = "md5"
	}
	return fmt.Sprintf("gridftp: %s mismatch for %s (want %s, got %q)", algo, e.URL, e.Want, e.Got)
}

// ThirdParty copies a file between two sites (third-party transfer).
func (c *Client) ThirdParty(src *site.Site, srcPath string, dst *site.Site, dstPath string) error {
	e, err := src.FS.MustStat(srcPath)
	if err != nil {
		return fmt.Errorf("gridftp: %w", err)
	}
	c.clock.Sleep(c.cost.Duration(e.Size))
	dst.FS.Write(dstPath, e.Kind, e.Size, e.MD5, e.Artifact)
	c.account(src.Attrs.Name, e.Size)
	return nil
}

// Attach wires this client into a site's shell so globus-url-copy works.
func (c *Client) Attach(s *site.Site) {
	s.Transfer = func(srcURL, dstPath string) error { return c.Fetch(srcURL, s, dstPath) }
}

// Stats reports total transfers and bytes moved.
func (c *Client) Stats() (transfers int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.transfers, c.bytes
}

// SourceStats reports per-source transfer tallies: OriginSource for
// repository fetches, peer site names for CAS peer copies and third-party
// transfers.
func (c *Client) SourceStats() map[string]SourceStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]SourceStat, len(c.sources))
	for s, st := range c.sources {
		out[s] = *st
	}
	return out
}

// OriginFetches reports how many times each source URL was fetched from
// origin through this client — the quantity the artifact grid exists to
// bound.
func (c *Client) OriginFetches() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.originBy))
	for u, n := range c.originBy {
		out[u] = n
	}
	return out
}
