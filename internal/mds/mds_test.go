package mds

import (
	"fmt"
	"sync"
	"testing"

	"glare/internal/epr"
	"glare/internal/gsi"
	"glare/internal/transport"
	"glare/internal/xmlutil"
)

func entry(i int) (epr.EPR, *xmlutil.Node) {
	key := fmt.Sprintf("type%03d", i)
	e := epr.New("http://s/wsrf/services/ATR", "ActivityTypeKey", key)
	doc := xmlutil.NewNode("ActivityTypeEntry")
	doc.SetAttr("name", key)
	doc.SetAttr("type", "Imaging")
	return e, doc
}

func TestRegisterAndQuery(t *testing.T) {
	x := New("idx", DefaultIndex, nil)
	for i := 0; i < 20; i++ {
		x.Register(entry(i))
	}
	if x.Len() != 20 {
		t.Fatalf("len = %d", x.Len())
	}
	res, err := x.QueryString(`//ActivityTypeEntry[@name='type007']`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 1 {
		t.Fatalf("query = %d", len(res.Nodes))
	}
	if _, err := x.QueryString(`///bad`); err == nil {
		t.Fatal("bad xpath must error")
	}
}

func TestUnregister(t *testing.T) {
	x := New("idx", DefaultIndex, nil)
	e, doc := entry(1)
	x.Register(e, doc)
	if !x.Unregister(e.Key) {
		t.Fatal("unregister failed")
	}
	if x.Unregister(e.Key) {
		t.Fatal("double unregister must be false")
	}
	if x.Len() != 0 {
		t.Fatal("entry survived")
	}
}

func TestHierarchicalAggregation(t *testing.T) {
	community := New("community", CommunityIndex, nil)
	local := New("local", DefaultIndex, nil)
	local.AddUpstream(community)
	e, doc := entry(5)
	local.Register(e, doc)
	if community.Len() != 1 {
		t.Fatal("registration did not flow upstream")
	}
	local.Unregister(e.Key)
	if community.Len() != 0 {
		t.Fatal("unregistration did not flow upstream")
	}
	// Self/nil upstream is ignored.
	local.AddUpstream(local)
	local.AddUpstream(nil)
	local.Register(e, doc)
	if local.Len() != 1 {
		t.Fatal("self upstream broke registration")
	}
}

func TestMembers(t *testing.T) {
	x := New("idx", DefaultIndex, nil)
	for i := 0; i < 3; i++ {
		x.Register(entry(i))
	}
	m := x.Members()
	if len(m) != 3 || m[0] != "type000" {
		t.Fatalf("members = %v", m)
	}
}

func TestKindString(t *testing.T) {
	if DefaultIndex.String() != "DefaultIndex" || CommunityIndex.String() != "CommunityIndex" {
		t.Fatal("kind names wrong")
	}
}

func TestOverloadCollapse(t *testing.T) {
	x := New("idx", DefaultIndex, nil)
	x.SetCollapse(CollapseConfig{Resources: 10, Clients: 2})
	// Register well past the resource threshold; a large aggregated
	// document also makes each XPath scan slow enough that concurrent
	// queries genuinely overlap.
	for i := 0; i < 400; i++ {
		x.Register(entry(i))
	}
	// Saturate in-flight queries beyond the client threshold.
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < 20; q++ {
				if _, err := x.QueryString(`//ActivityTypeEntry[@name='type003']`); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	sawCollapse := false
	for err := range errs {
		if err != nil {
			sawCollapse = true
		}
	}
	if !sawCollapse && !x.Wedged() {
		t.Fatal("index should have collapsed under load")
	}
	// Once wedged it refuses everything until reset.
	if x.Wedged() {
		if _, err := x.QueryString(`//x`); err == nil {
			t.Fatal("wedged index must refuse queries")
		}
		x.Reset()
		if _, err := x.QueryString(`//ActivityTypeEntry`); err != nil {
			t.Fatalf("reset index must answer: %v", err)
		}
	}
}

func TestNoCollapseBelowThresholds(t *testing.T) {
	x := New("idx", DefaultIndex, nil)
	x.SetCollapse(ObservedCollapse)
	for i := 0; i < 50; i++ { // well below 130
		x.Register(entry(i))
	}
	var wg sync.WaitGroup
	for c := 0; c < 30; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < 10; q++ {
				if _, err := x.QueryString(`//ActivityTypeEntry[@name='type001']`); err != nil {
					t.Errorf("unexpected collapse: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if x.Wedged() {
		t.Fatal("collapsed below thresholds")
	}
}

func TestMountOverTransport(t *testing.T) {
	for _, secure := range []bool{false, true} {
		t.Run(fmt.Sprintf("secure=%v", secure), func(t *testing.T) {
			x := New("idx", DefaultIndex, nil)
			srv := transport.NewServer()
			x.Mount(srv)
			var clientTLS = (*gsi.Authority)(nil)
			if secure {
				ca, err := gsi.NewAuthority("test-ca")
				if err != nil {
					t.Fatal(err)
				}
				conf, err := ca.ServerConfig("127.0.0.1")
				if err != nil {
					t.Fatal(err)
				}
				if err := srv.Start("127.0.0.1:0", conf); err != nil {
					t.Fatal(err)
				}
				clientTLS = ca
			} else {
				if err := srv.Start("127.0.0.1:0", nil); err != nil {
					t.Fatal(err)
				}
			}
			defer srv.Close()

			var cli *transport.Client
			if clientTLS != nil {
				cli = transport.NewClient(clientTLS.ClientConfig())
			} else {
				cli = transport.NewClient(nil)
			}
			url := srv.ServiceURL(ServiceName)

			// Register an entry remotely.
			e, doc := entry(9)
			body := xmlutil.NewNode("Entry")
			body.Add(e.ToXML("MemberEPR"))
			body.Add(doc)
			if _, err := cli.Call(url, "Register", body); err != nil {
				t.Fatalf("Register: %v", err)
			}
			// Query it back.
			q := xmlutil.NewNode("XPath", `//ActivityTypeEntry[@name='type009']`)
			res, err := cli.Call(url, "Query", q)
			if err != nil {
				t.Fatalf("Query: %v", err)
			}
			if len(res.All("ActivityTypeEntry")) != 1 {
				t.Fatalf("remote query result: %s", res)
			}
			// Members.
			m, err := cli.Call(url, "Members", nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.All("Member")) != 1 {
				t.Fatalf("members: %s", m)
			}
			// Faults propagate.
			if _, err := cli.Call(url, "Register", nil); err == nil || !transport.IsFault(err) {
				t.Fatalf("expected fault, got %v", err)
			}
			if _, err := cli.Call(url, "NoSuchOp", nil); err == nil {
				t.Fatal("unknown op must fault")
			}
		})
	}
}
