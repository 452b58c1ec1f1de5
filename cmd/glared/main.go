// Command glared runs a single standalone GLARE site daemon: the full
// per-site stack (transport container, Default Index, ATR, ADR,
// PeerService, RDM frontend and monitors) on one address.
//
// A daemon can run alone, or join an existing community by registering
// itself in a remote community index:
//
//	glared -addr 127.0.0.1:9001 -name agrid-a            # community holder
//	glared -addr 127.0.0.1:9002 -name agrid-b -join http://127.0.0.1:9001
//
// The joining site appears in the holder's community index; the holder's
// Index Monitor then re-runs the super-peer election to fold it in.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"glare/internal/epr"
	"glare/internal/mds"
	"glare/internal/rdm"
	"glare/internal/rrd"
	"glare/internal/simclock"
	"glare/internal/site"
	"glare/internal/store"
	"glare/internal/superpeer"
	"glare/internal/telemetry"
	"glare/internal/transport"
	"glare/internal/workload"
	"glare/internal/wsrf"
	"glare/internal/xmlutil"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	name := flag.String("name", "", "site name (default derived from address)")
	join := flag.String("join", "", "base URL of the community-index holder to join")
	community := flag.Bool("community", false, "host the community index (election coordinator)")
	mhz := flag.Int("mhz", 1500, "site processor speed attribute")
	memory := flag.Int("memory", 2048, "site memory attribute (MB)")
	dataDir := flag.String("data", "", "durable store directory (empty = memory-only; registries and leases are then lost on restart)")
	fsyncMode := flag.String("fsync", "interval", "store fsync policy: always|interval|never")
	maxBuilds := flag.Int("max-builds", 0, "concurrent on-demand builds this site runs (0 = engine default)")
	buildQueue := flag.Int("build-queue", 0, "builds waiting for a slot before new ones are shed (0 = engine default, negative = no queue)")
	historyStep := flag.Duration("history-step", rrd.DefaultStep, "telemetry-history base step; must be positive (every site keeps a round-robin history)")
	historyRet := flag.String("history-ret", "", "telemetry-history retention archives as comma-separated [cf:]STEPSxROWS items, e.g. avg:1x600,avg:60x1440,max:10x600 (empty = defaults)")
	admission := flag.Bool("admission", true, "enable the overload admission controller (priority classes, deadline-aware queueing, AIMD limits)")
	replicas := flag.Int("replicas", 0, "total copies of every registration kept in the peer group, owner included; writes are acknowledged at a quorum (0 or 1 = no replication)")
	casBudget := flag.Int64("cas-budget", 0, "content-addressed artifact cache byte budget (0 = default; must not be negative, every site keeps an artifact cache)")
	flag.Parse()

	historyCfg, err := historyConfig(*historyStep, *historyRet)
	if err != nil {
		fatal(err)
	}
	if *casBudget < 0 {
		fatal(fmt.Errorf("-cas-budget %d: must be 0 (default) or a positive byte count", *casBudget))
	}

	fsync, err := store.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		fatal(err)
	}

	attrs := site.Attributes{
		Name:         *name,
		ProcessorMHz: *mhz,
		MemoryMB:     *memory,
		UptimeHours:  100,
		Processors:   4,
		Platform:     "Intel",
		OS:           "Linux",
		Arch:         "32bit",
	}
	srv := transport.NewServer()
	if err := srv.Start(*addr, nil); err != nil {
		fatal(err)
	}
	defer srv.Close()
	if attrs.Name == "" {
		attrs.Name = strings.TrimPrefix(srv.BaseURL(), "http://")
	}

	clock := simclock.Real
	st := site.New(attrs, clock, site.StandardUniverse())
	info := superpeer.SiteInfo{Name: attrs.Name, Rank: attrs.Rank(), BaseURL: srv.BaseURL()}
	tel := telemetry.New(attrs.Name)
	if *admission {
		srv.SetAdmission(transport.NewAdmission(transport.DefaultAdmissionConfig(), tel))
	}
	client := transport.NewClient(nil)
	client.SetTelemetry(tel)
	client.SetRetryPolicy(transport.DefaultRetryPolicy())
	client.SetRetryBudget(transport.NewRetryBudget(0, 0))
	client.SetBreaker(transport.DefaultBreakerConfig())
	// rdm.New adopts the agent's broker as the site's one broker.
	agent := superpeer.NewAgent(info, client, wsrf.NewBroker(clock))

	kind := mds.DefaultIndex
	if *community || *join == "" {
		kind = mds.CommunityIndex
	}
	index := mds.New("index-"+attrs.Name, kind, clock)
	resolver := workload.NewResolver(st.Repo)

	// Durability: recover the site's journal before assembling the RDM so
	// registrations, deployment documents and unexpired leases survive a
	// daemon restart.
	var durable *store.Store
	if *dataDir != "" {
		durable, err = store.Open(store.Options{Dir: *dataDir, Fsync: fsync, Clock: clock})
		if err != nil {
			fatal(err)
		}
	}

	svc, err := rdm.New(rdm.Config{
		Site:        st,
		Clock:       clock,
		Client:      client,
		Agent:       agent,
		LocalIndex:  index,
		DeployFiles: resolver.Fetch,
		Telemetry:   tel,
		Store:       durable,
		Deploy: rdm.DeployLimits{
			MaxConcurrent: *maxBuilds,
			QueueDepth:    *buildQueue,
		},
		History:   historyCfg,
		ReplicaK:  *replicas,
		CASBudget: *casBudget,
	})
	if err != nil {
		fatal(err)
	}
	// HLC exchange: the site's stamps ride every envelope it sends and
	// every response it serves, so peers merge them and skew surveillance
	// sees every peer this daemon talks to.
	client.SetHLC(svc.HLC())
	srv.SetHLC(svc.HLC())
	if durable != nil {
		s := durable.Status()
		fmt.Printf("glared: store %s recovered %d record(s) in %s (live=%d, truncated=%dB, fsync=%s)\n",
			s.Dir, s.ReplayRecords, s.ReplayDuration.Round(time.Millisecond),
			s.LiveRecords, s.TruncatedBytes, fsync)
	}
	svc.Mount(srv)
	svc.MountExtensions(srv)

	// Register this site in the community index — ours, or the remote
	// holder's when joining.
	siteEPR := epr.New(info.ServiceURL(rdm.ServiceName), "SiteKey", info.Name)
	if *join != "" {
		entry := xmlutil.NewNode("Entry")
		entry.Add(siteEPR.ToXML("MemberEPR"))
		entry.Add(info.ToXML())
		joinURL := strings.TrimSuffix(*join, "/") + transport.ServicePrefix + mds.ServiceName
		if _, err := client.Call(joinURL, "Register", entry); err != nil {
			fatal(fmt.Errorf("joining %s: %w", *join, err))
		}
		fmt.Printf("joined community at %s\n", *join)
	} else {
		index.Register(siteEPR, info.ToXML())
	}

	svc.StartMonitors()
	fmt.Printf("glared: site %s up at %s (index: %s)\n", attrs.Name, srv.BaseURL(), kind)
	fmt.Printf("RDM service: %s\n", srv.ServiceURL(rdm.ServiceName))
	fmt.Printf("admin: %s/metrics %s/healthz %s/tracez\n",
		srv.BaseURL(), srv.BaseURL(), srv.BaseURL())

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	svc.Stop()
	fmt.Println("glared: shutting down")
}

// historyConfig builds the site's telemetry-history configuration from the
// -history-step / -history-ret flags. A retention item is [cf:]STEPSxROWS
// where cf is one of avg|min|max|last (default avg), STEPS is how many base
// steps one slot consolidates and ROWS is the ring length.
func historyConfig(step time.Duration, retention string) (rdm.HistoryConfig, error) {
	cfg := rdm.HistoryConfig{Step: step}
	if step <= 0 {
		return cfg, fmt.Errorf("-history-step %s: must be positive", step)
	}
	if retention == "" {
		return cfg, nil
	}
	for _, item := range strings.Split(retention, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		spec := rrd.ArchiveSpec{CF: rrd.Average}
		body := item
		if i := strings.IndexByte(item, ':'); i >= 0 {
			cf, err := rrd.ParseCF(item[:i])
			if err != nil {
				return cfg, fmt.Errorf("-history-ret %q: %w", item, err)
			}
			spec.CF = cf
			body = item[i+1:]
		}
		if _, err := fmt.Sscanf(body, "%dx%d", &spec.Steps, &spec.Rows); err != nil ||
			spec.Steps <= 0 || spec.Rows <= 0 {
			return cfg, fmt.Errorf("-history-ret %q: want [cf:]STEPSxROWS", item)
		}
		if spec.Rows > rrd.MaxRows {
			return cfg, fmt.Errorf("-history-ret %q: at most %d rows", item, rrd.MaxRows)
		}
		cfg.Archives = append(cfg.Archives, spec)
	}
	return cfg, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "glared:", err)
	os.Exit(1)
}
