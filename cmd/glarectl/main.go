// Command glarectl is the command-line client of a GLARE site: it speaks
// the envelope protocol to the RDM service at -url and performs the
// operations a scheduler or activity provider would.
//
// Usage:
//
//	glarectl -url http://127.0.0.1:PORT discover ImageConversion
//	glarectl -url ... types
//	glarectl -url ... deployments JPOVray
//	glarectl -url ... deploy Wien2k [expect|cog]
//	glarectl -url ... register-type type.xml
//	glarectl -url ... undeploy jpovray
//	glarectl -url ... lease jpovray client1 exclusive 3600
//	glarectl -url ... release 3
//	glarectl -url ... instantiate jpovray client1 3 "scene.pov"
//
// -url may be the site base (http://host:port) or the full RDM service URL.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"glare/internal/atr"
	"glare/internal/mds"
	"glare/internal/rdm"
	"glare/internal/superpeer"
	"glare/internal/transport"
	"glare/internal/xmlutil"
)

func main() {
	url := flag.String("url", "", "site base URL or RDM service URL (required)")
	flag.Parse()
	if *url == "" || flag.NArg() == 0 {
		usage()
	}
	base := strings.TrimSuffix(*url, "/")
	rdmURL := base
	if !strings.Contains(base, transport.ServicePrefix) {
		rdmURL = base + transport.ServicePrefix + rdm.ServiceName
	}
	siteBase := rdmURL[:strings.Index(rdmURL, transport.ServicePrefix)]
	cli := transport.NewClient(nil)
	// One-shot admin calls ride the same transport robustness as the
	// daemons: transient connection failures are retried with backoff.
	cli.SetRetryPolicy(transport.DefaultRetryPolicy())

	args := flag.Args()
	var err error
	switch args[0] {
	case "discover":
		err = discover(cli, rdmURL, arg(args, 1), "auto")
	case "resolve":
		err = discover(cli, rdmURL, arg(args, 1), "never")
	case "types":
		err = listTypes(cli, siteBase)
	case "deployments":
		err = deployments(cli, rdmURL, arg(args, 1))
	case "deploy":
		method := "expect"
		if len(args) > 2 {
			method = args[2]
		}
		err = deploy(cli, rdmURL, arg(args, 1), method)
	case "register-type":
		err = registerType(cli, rdmURL, arg(args, 1))
	case "undeploy":
		_, err = cli.Call(rdmURL, "Undeploy", xmlutil.NewNode("Name", arg(args, 1)))
		if err == nil {
			fmt.Println("undeployed", args[1])
		}
	case "lease":
		err = leaseCmd(cli, rdmURL, args)
	case "release":
		_, err = cli.Call(rdmURL, "ReleaseLease", xmlutil.NewNode("ID", arg(args, 1)))
		if err == nil {
			fmt.Println("released")
		}
	case "instantiate":
		err = instantiate(cli, rdmURL, args)
	case "search":
		err = search(cli, rdmURL, args[1:])
	case "metrics":
		err = metricsCmd(cli, siteBase, args[1:])
	case "history":
		err = historyCmd(cli, rdmURL, args[1:])
	case "status":
		err = statusCmd(cli, siteBase)
	case "store":
		if arg(args, 1) != "status" {
			usage()
		}
		err = storeStatusCmd(cli, siteBase)
	case "builds":
		err = buildsCmd(cli, siteBase)
	case "replicas":
		err = replicasCmd(cli, siteBase)
	case "artifacts":
		err = artifactsCmd(cli, siteBase)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "glarectl:", err)
		os.Exit(1)
	}
}

func arg(args []string, i int) string {
	if i >= len(args) {
		usage()
	}
	return args[i]
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: glarectl -url <site> <command> [args]
commands:
  discover <type>                    resolve deployments, installing on demand
  resolve <type>                     resolve deployments, never installing
  types                              list activity types on the site
  deployments <type>                 list the site's local deployments of a type
  deploy <type> [expect|cog]         force an on-demand deployment
  register-type <file.xml>           register an ActivityTypeEntry document
  undeploy <deployment>              remove a deployment
  lease <dep> <client> <kind> <sec>  acquire a lease (kind: exclusive|shared)
  release <ticket-id>                release a lease
  instantiate <dep> <client> <ticket|0> [args]
  search <function> [input...]       semantic type search by capability
  metrics [--filter <prefix>]        scrape /metrics from every community
                                     site into one table (the prefix
                                     filters metric names; default glare_;
                                     a bare positional prefix also works)
  history [--json] <metric>          dump the site's round-robin history of
                                     a metric: every retention archive with
                                     row stats and an ASCII sparkline, or
                                     the raw export as JSON; super-peers
                                     also keep grid-wide grid:<metric>
                                     rollup series
  status                             probe every community site's overlay
                                     view and load: role, epoch, admission
                                     inflight/queued/shed (each column a
                                     control/interactive/bulk triple) and
                                     super-peer per site (split brains show
                                     up as rows disagreeing on the
                                     super-peer)
  store status                       probe every community site's durable
                                     registry store: live WAL file bytes,
                                     live and snapshot record counts,
                                     snapshot age
  builds                             probe every community site's deployment
                                     engine: in-flight builds, queue depth,
                                     quarantined types, resumable builds
  replicas                           probe every community site's quorum
                                     replication state: replication factor,
                                     the site's own replica set, and the
                                     origins it holds shadow copies for
                                     (live entries @ newest stamp held,
                                     a delete's included; * marks a
                                     promotion)
  artifacts                          probe every community site's content-
                                     addressed artifact cache: occupancy
                                     against its byte budget, hit/miss,
                                     peer vs origin fetches, verification
                                     failures, bytes saved, and held blobs
                                     (! marks a corrupt copy); every site
                                     runs one, unreachable sites show "-"`)
	os.Exit(2)
}

func discover(cli *transport.Client, url, typeName, deployMode string) error {
	req := xmlutil.NewNode("Request")
	req.SetAttr("type", typeName)
	req.SetAttr("deploy", deployMode)
	resp, err := cli.Call(url, "GetDeployments", req)
	if err != nil {
		return err
	}
	printDeployments(resp)
	return nil
}

func deployments(cli *transport.Client, url, typeName string) error {
	req := xmlutil.NewNode("Resolve").SetAttr("name", typeName).SetAttr("scope", "site")
	resp, err := cli.Call(url, "Resolve", req)
	if err != nil {
		return err
	}
	printDeployments(resp)
	return nil
}

func printDeployments(resp *xmlutil.Node) {
	list := resp.All("ActivityDeployment")
	if len(list) == 0 {
		fmt.Println("no deployments")
		return
	}
	for _, d := range list {
		loc := d.ChildText("Path")
		if loc == "" {
			loc = d.ChildText("Address")
		}
		fmt.Printf("%-16s %-12s %-10s site=%s %s\n",
			d.AttrOr("name", "?"), d.AttrOr("type", "?"),
			d.AttrOr("category", "?"), d.ChildText("Site"), loc)
	}
}

func listTypes(cli *transport.Client, siteBase string) error {
	resp, err := cli.Call(siteBase+transport.ServicePrefix+atr.ServiceName, "ListTypes", nil)
	if err != nil {
		return err
	}
	for _, t := range resp.All("Type") {
		fmt.Println(t.Text)
	}
	return nil
}

func deploy(cli *transport.Client, url, typeName, method string) error {
	req := xmlutil.NewNode("Deploy")
	req.SetAttr("type", typeName)
	req.SetAttr("method", method)
	resp, err := cli.Call(url, "DeployLocal", req)
	if err != nil {
		return err
	}
	printDeployments(resp)
	if tm := resp.First("Timings"); tm != nil {
		fmt.Printf("timings (ms): type-addition=%s communication=%s installation=%s registration=%s notification=%s method-overhead=%s\n",
			tm.ChildText("TypeAddition"), tm.ChildText("Communication"),
			tm.ChildText("Installation"), tm.ChildText("Registration"),
			tm.ChildText("Notification"), tm.ChildText("MethodOverhead"))
	}
	return nil
}

func registerType(cli *transport.Client, url, file string) error {
	data, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	doc, err := xmlutil.ParseString(string(data))
	if err != nil {
		return err
	}
	resp, err := cli.Call(url, "RegisterType", doc)
	if err != nil {
		return err
	}
	fmt.Println("registered:", resp.ChildText("Address"))
	return nil
}

func leaseCmd(cli *transport.Client, url string, args []string) error {
	if len(args) < 5 {
		usage()
	}
	req := xmlutil.NewNode("Lease")
	req.SetAttr("deployment", args[1])
	req.SetAttr("client", args[2])
	req.SetAttr("kind", args[3])
	req.SetAttr("seconds", args[4])
	resp, err := cli.Call(url, "AcquireLease", req)
	if err != nil {
		return err
	}
	fmt.Printf("ticket %s (%s on %s)\n",
		resp.AttrOr("id", "?"), resp.AttrOr("kind", "?"), resp.AttrOr("deployment", "?"))
	return nil
}

func search(cli *transport.Client, url string, args []string) error {
	if len(args) == 0 {
		usage()
	}
	q := xmlutil.NewNode("Query")
	q.SetAttr("function", args[0])
	for _, in := range args[1:] {
		q.Elem("Input", in)
	}
	resp, err := cli.Call(url, "SearchTypes", q)
	if err != nil {
		return err
	}
	matches := resp.All("Match")
	if len(matches) == 0 {
		fmt.Println("no matching activity types")
		return nil
	}
	for _, m := range matches {
		ty := m.First("ActivityTypeEntry")
		fmt.Printf("%-16s score=%s via=%s\n",
			ty.AttrOr("name", "?"), m.AttrOr("score", "?"), m.AttrOr("via", "-"))
	}
	return nil
}

// metricsCmd scrapes the /metrics admin endpoint of every site registered
// in the community index reachable through -url, and prints one grid-wide
// table: one row per metric series, one column per site. When the index
// is unreachable (or empty) it falls back to scraping the -url site alone.
func metricsCmd(cli *transport.Client, siteBase string, args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	filter := fs.String("filter", "glare_", "keep metric series whose name starts with this prefix")
	if err := fs.Parse(args); err != nil {
		return err
	}
	prefix := *filter
	// A bare positional prefix keeps the pre-flag invocation working.
	if fs.NArg() > 0 {
		prefix = fs.Arg(0)
	}
	sites := communitySites(cli, siteBase)
	if len(sites) == 0 {
		sites = []superpeer.SiteInfo{{Name: siteBase, BaseURL: siteBase}}
	}

	// site name -> metric series -> value; unreachable sites show as "-".
	perSite := make([]map[string]string, len(sites))
	union := map[string]bool{}
	for i, s := range sites {
		text, err := cli.Get(s.BaseURL + "/metrics")
		if err != nil {
			fmt.Fprintf(os.Stderr, "glarectl: %s: %v\n", s.Name, err)
			continue
		}
		perSite[i] = parseExposition(text, prefix)
		for name := range perSite[i] {
			union[name] = true
		}
	}
	if len(union) == 0 {
		return fmt.Errorf("no metrics matching %q scraped from %d site(s)", prefix, len(sites))
	}

	names := make([]string, 0, len(union))
	for n := range union {
		names = append(names, n)
	}
	sort.Strings(names)

	wide := 0
	for _, n := range names {
		if len(n) > wide {
			wide = len(n)
		}
	}
	fmt.Printf("%-*s", wide, "METRIC")
	for _, s := range sites {
		fmt.Printf("  %s", s.Name)
	}
	fmt.Println()
	for _, n := range names {
		fmt.Printf("%-*s", wide, n)
		for i, s := range sites {
			v := "-"
			if perSite[i] != nil {
				if got, ok := perSite[i][n]; ok {
					v = got
				}
			}
			fmt.Printf("  %*s", len(s.Name), v)
		}
		fmt.Println()
	}
	return nil
}

// statusCmd probes the overlay view of every site registered in the
// community index and prints one row per site: its role, its view's epoch,
// its admission-controller load (inflight/queued/shed, each split
// control/interactive/bulk) and the super-peer it follows. During a
// partition the rows disagree on the super-peer column; after a heal they
// converge back to one reign.
func statusCmd(cli *transport.Client, siteBase string) error {
	sites := communitySites(cli, siteBase)
	if len(sites) == 0 {
		sites = []superpeer.SiteInfo{{Name: siteBase, BaseURL: siteBase}}
	}
	wide := len("SITE")
	for _, s := range sites {
		if len(s.Name) > wide {
			wide = len(s.Name)
		}
	}
	fmt.Printf("%-*s  %-10s  %5s  %8s  %8s  %8s  %8s  %s\n", wide,
		"SITE", "ROLE", "EPOCH", "INFLIGHT", "QUEUED", "SHED", "SKEW", "SUPER-PEER")
	for _, s := range sites {
		resp, err := cli.Call(s.PeerURL(), "ViewStatus", nil)
		if err != nil {
			fmt.Printf("%-*s  %-10s  %5s  %8s  %8s  %8s  %8s  %s\n", wide, s.Name,
				"-", "-", "-", "-", "-", "-", "- ("+err.Error()+")")
			continue
		}
		superPeer := resp.AttrOr("superPeer", "")
		if superPeer == "" {
			superPeer = "(unassigned)"
		}
		inflight, queued, shed := loadColumns(cli, s)
		fmt.Printf("%-*s  %-10s  %5s  %8s  %8s  %8s  %8s  %s\n", wide, s.Name,
			resp.AttrOr("role", "?"), resp.AttrOr("epoch", "?"),
			inflight, queued, shed, skewColumn(resp), superPeer)
	}
	return nil
}

// skewColumn renders the worst clock-skew observation a site reported in
// its ViewStatus: the signed offset (in ms) of the most-disagreeing peer's
// HLC stamps against the probed site's own clock. Sites without skew
// surveillance (older builds) render as a dash.
func skewColumn(resp *xmlutil.Node) string {
	ms := resp.AttrOr("skewMs", "")
	if ms == "" {
		return "-"
	}
	return ms + "ms"
}

// loadColumns probes a site's admission controller (the RDM "LoadStatus"
// operation) and renders the inflight/queued/shed columns, each value a
// control/interactive/bulk triple. Sites without admission control (or
// unreachable ones) render as dashes.
func loadColumns(cli *transport.Client, s superpeer.SiteInfo) (inflight, queued, shed string) {
	resp, err := cli.Call(s.ServiceURL(rdm.ServiceName), "LoadStatus", nil)
	if err != nil || resp.AttrOr("enabled", "false") != "true" {
		return "-", "-", "-"
	}
	var in, qu, sh []string
	for _, c := range resp.All("Class") {
		in = append(in, c.AttrOr("inflight", "?"))
		qu = append(qu, c.AttrOr("queued", "?"))
		// Shed column folds both overflow sheds and in-queue expiries:
		// everything the controller refused for this class.
		sheds, expired := c.AttrOr("sheds", "?"), c.AttrOr("expired", "0")
		if expired != "0" {
			sheds += "+" + expired
		}
		sh = append(sh, sheds)
	}
	return strings.Join(in, "/"), strings.Join(qu, "/"), strings.Join(sh, "/")
}

// storeStatusCmd probes the durable registry store of every site
// registered in the community index and prints one row per site: the live
// WAL file's bytes, live and snapshot record counts and the snapshot's age.
// Memory-only sites show as "off"; unreachable sites as "-".
func storeStatusCmd(cli *transport.Client, siteBase string) error {
	sites := communitySites(cli, siteBase)
	if len(sites) == 0 {
		sites = []superpeer.SiteInfo{{Name: siteBase, BaseURL: siteBase}}
	}
	wide := len("SITE")
	for _, s := range sites {
		if len(s.Name) > wide {
			wide = len(s.Name)
		}
	}
	fmt.Printf("%-*s  %9s  %7s  %9s  %8s  %8s  %s\n", wide,
		"SITE", "WAL-BYTES", "LASTSEQ", "LIVE-RECS", "SNAP-RECS", "SNAP-AGE", "NOTES")
	for _, s := range sites {
		resp, err := cli.Call(s.ServiceURL(rdm.ServiceName), "StoreStatus", nil)
		if err != nil {
			fmt.Printf("%-*s  %9s  %7s  %9s  %8s  %8s  %s\n", wide, s.Name,
				"-", "-", "-", "-", "-", err.Error())
			continue
		}
		if resp.AttrOr("enabled", "false") != "true" {
			fmt.Printf("%-*s  %9s  %7s  %9s  %8s  %8s  %s\n", wide, s.Name,
				"off", "-", "-", "-", "-", "memory-only")
			continue
		}
		snapRecs, snapAge := "-", "-"
		if resp.AttrOr("snapshot", "false") == "true" {
			snapRecs = resp.AttrOr("snapshotRecords", "?")
			snapAge = resp.AttrOr("snapshotAgeSeconds", "?") + "s"
		}
		notes := fmt.Sprintf("replayed %s rec(s) in %sms",
			resp.AttrOr("replayRecords", "0"), resp.AttrOr("replayMs", "0"))
		if tb := resp.AttrOr("truncatedBytes", "0"); tb != "0" {
			notes += ", truncated " + tb + "B"
		}
		if e := resp.AttrOr("err", ""); e != "" {
			notes += ", ERR: " + e
		}
		fmt.Printf("%-*s  %9s  %7s  %9s  %8s  %8s  %s\n", wide, s.Name,
			resp.AttrOr("walBytes", "?"), resp.AttrOr("lastSeq", "?"),
			resp.AttrOr("liveRecords", "?"), snapRecs, snapAge, notes)
	}
	return nil
}

// buildsCmd probes the deployment execution engine of every site registered
// in the community index: what is building now, how deep the admission
// queue is, which types are quarantined after repeated failures and which
// interrupted builds hold checkpoints awaiting resume.
func buildsCmd(cli *transport.Client, siteBase string) error {
	sites := communitySites(cli, siteBase)
	if len(sites) == 0 {
		sites = []superpeer.SiteInfo{{Name: siteBase, BaseURL: siteBase}}
	}
	wide := len("SITE")
	for _, s := range sites {
		if len(s.Name) > wide {
			wide = len(s.Name)
		}
	}
	fmt.Printf("%-*s  %5s  %6s  %-24s  %-28s  %s\n", wide,
		"SITE", "SLOTS", "QUEUED", "BUILDING", "QUARANTINED", "RESUMABLE")
	for _, s := range sites {
		resp, err := cli.Call(s.ServiceURL(rdm.ServiceName), "DeployStatus", nil)
		if err != nil {
			fmt.Printf("%-*s  %5s  %6s  %-24s  %-28s  %s\n", wide, s.Name,
				"-", "-", "-", "-", err.Error())
			continue
		}
		var building, quarantined, resumable []string
		for _, n := range resp.All("Building") {
			building = append(building, n.AttrOr("type", "?"))
		}
		for _, n := range resp.All("Quarantined") {
			quarantined = append(quarantined, fmt.Sprintf("%s(%s fails, %sms left)",
				n.AttrOr("type", "?"), n.AttrOr("failures", "?"), n.AttrOr("remainingMS", "?")))
		}
		for _, n := range resp.All("Resumable") {
			resumable = append(resumable, fmt.Sprintf("%s(%s steps)",
				n.AttrOr("type", "?"), n.AttrOr("steps", "?")))
		}
		dash := func(v []string) string {
			if len(v) == 0 {
				return "-"
			}
			return strings.Join(v, ",")
		}
		fmt.Printf("%-*s  %5s  %6s  %-24s  %-28s  %s\n", wide, s.Name,
			resp.AttrOr("maxBuilds", "?"), resp.AttrOr("queued", "?"),
			dash(building), dash(quarantined), dash(resumable))
	}
	return nil
}

// replicasCmd probes the quorum-replication state of every site registered
// in the community index and prints one row per site: the replication
// factor K, the replicas this site fans its own writes out to, and the
// origins it holds shadow copies for (with live entry counts, the newest
// stamp held — a tombstone's included, as promotion ranks on it — and a
// "*" marking promoted origins — origins whose data this site adopted
// after their permanent loss). Sites without
// replication show as "off"; unreachable sites as "-".
func replicasCmd(cli *transport.Client, siteBase string) error {
	sites := communitySites(cli, siteBase)
	if len(sites) == 0 {
		sites = []superpeer.SiteInfo{{Name: siteBase, BaseURL: siteBase}}
	}
	wide := len("SITE")
	for _, s := range sites {
		if len(s.Name) > wide {
			wide = len(s.Name)
		}
	}
	fmt.Printf("%-*s  %3s  %-28s  %s\n", wide, "SITE", "K", "REPLICATES-TO", "HOLDS")
	for _, s := range sites {
		resp, err := cli.Call(s.ServiceURL(rdm.ServiceName), "ReplicaStatus", nil)
		if err != nil {
			fmt.Printf("%-*s  %3s  %-28s  %s\n", wide, s.Name, "-", "-", err.Error())
			continue
		}
		if resp.AttrOr("enabled", "false") != "true" {
			fmt.Printf("%-*s  %3s  %-28s  %s\n", wide, s.Name, "off", "-", "-")
			continue
		}
		var set, holds []string
		for _, r := range resp.All("Replica") {
			set = append(set, r.AttrOr("name", "?"))
		}
		for _, o := range resp.All("Origin") {
			h := fmt.Sprintf("%s(%s@%s)", o.AttrOr("name", "?"), o.AttrOr("entries", "?"), o.AttrOr("lastLUT", "-"))
			if o.AttrOr("promoted", "false") == "true" {
				h += "*"
			}
			holds = append(holds, h)
		}
		dash := func(v []string) string {
			if len(v) == 0 {
				return "-"
			}
			return strings.Join(v, ",")
		}
		fmt.Printf("%-*s  %3s  %-28s  %s\n", wide, s.Name,
			resp.AttrOr("k", "?"), dash(set), dash(holds))
	}
	return nil
}

// artifactsCmd probes the content-addressed artifact cache of every site
// registered in the community index and prints one row per site: cache
// occupancy against its byte budget, hit/miss counts, how many blobs came
// from peers versus origin, verification failures and the transfer bytes
// the cache saved. Unreachable sites show as "-".
func artifactsCmd(cli *transport.Client, siteBase string) error {
	sites := communitySites(cli, siteBase)
	if len(sites) == 0 {
		sites = []superpeer.SiteInfo{{Name: siteBase, BaseURL: siteBase}}
	}
	wide := len("SITE")
	for _, s := range sites {
		if len(s.Name) > wide {
			wide = len(s.Name)
		}
	}
	fmt.Printf("%-*s  %5s  %-17s  %5s  %5s  %5s  %5s  %6s  %10s  %s\n", wide,
		"SITE", "BLOBS", "BYTES/BUDGET", "HITS", "MISS", "PEER", "ORIG", "BADVFY", "SAVED", "HOLDINGS")
	for _, s := range sites {
		resp, err := cli.Call(s.ServiceURL(rdm.ServiceName), "ArtifactStatus", nil)
		if err != nil {
			fmt.Printf("%-*s  %5s  %-17s  %5s  %5s  %5s  %5s  %6s  %10s  %s\n", wide,
				s.Name, "-", "-", "-", "-", "-", "-", "-", "-", err.Error())
			continue
		}
		var holdings []string
		for _, b := range resp.All("Blob") {
			h := b.AttrOr("artifact", b.AttrOr("sum", "?"))
			if len(h) > 24 {
				h = h[:24]
			}
			if b.AttrOr("corrupt", "false") == "true" {
				h += "!"
			}
			holdings = append(holdings, h)
		}
		hold := "-"
		if len(holdings) > 0 {
			hold = strings.Join(holdings, ",")
		}
		fmt.Printf("%-*s  %5s  %-17s  %5s  %5s  %5s  %5s  %6s  %10s  %s\n", wide, s.Name,
			resp.AttrOr("entries", "?"),
			resp.AttrOr("bytes", "?")+"/"+resp.AttrOr("budget", "?"),
			resp.AttrOr("hits", "?"), resp.AttrOr("misses", "?"),
			resp.AttrOr("peerFetches", "?"), resp.AttrOr("originFetches", "?"),
			resp.AttrOr("verifyFailures", "?"), resp.AttrOr("bytesSaved", "?"), hold)
	}
	return nil
}

// communitySites asks the site's index service for every <Site> registered
// in the (aggregated) community document.
func communitySites(cli *transport.Client, siteBase string) []superpeer.SiteInfo {
	resp, err := cli.Call(siteBase+transport.ServicePrefix+mds.ServiceName,
		"Query", xmlutil.NewNode("XPath", "//Site"))
	if err != nil || resp == nil {
		return nil
	}
	seen := map[string]bool{}
	var out []superpeer.SiteInfo
	for _, n := range resp.All("Site") {
		info, err := superpeer.SiteInfoFromXML(n)
		if err != nil || seen[info.Name] || info.BaseURL == "" {
			continue
		}
		seen[info.Name] = true
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// parseExposition extracts "name value" samples from the text exposition
// format, keeping series whose name starts with prefix.
func parseExposition(text, prefix string) map[string]string {
	out := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		name, value := line[:i], line[i+1:]
		if strings.HasPrefix(name, prefix) {
			out[name] = value
		}
	}
	return out
}

func instantiate(cli *transport.Client, url string, args []string) error {
	if len(args) < 4 {
		usage()
	}
	req := xmlutil.NewNode("Run")
	req.SetAttr("name", args[1])
	req.SetAttr("client", args[2])
	req.SetAttr("ticket", args[3])
	if len(args) > 4 {
		req.SetAttr("args", strings.Join(args[4:], " "))
	}
	if _, err := cli.Call(url, "Instantiate", req); err != nil {
		return err
	}
	fmt.Println("started")
	return nil
}
