package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"glare/internal/telemetry"
	"glare/internal/xmlutil"
)

func TestClientTimeoutAbortsHungCall(t *testing.T) {
	srv := NewServer()
	release := make(chan struct{})
	srv.Register("Slow", "Hang", func(*xmlutil.Node) (*xmlutil.Node, error) {
		<-release
		return xmlutil.NewNode("Done"), nil
	})
	if err := srv.Start("127.0.0.1:0", nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { close(release); srv.Close() })

	cli := NewClientTimeout(nil, 50*time.Millisecond)
	if cli.timeout != 50*time.Millisecond {
		t.Fatalf("timeout = %v", cli.timeout)
	}
	start := time.Now()
	_, err := cli.Call(srv.ServiceURL("Slow"), "Hang", nil)
	if err == nil {
		t.Fatal("hung call must time out")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline exceeded, got %v", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("timed out only after %v", el)
	}
}

func TestClientDefaultTimeout(t *testing.T) {
	if d := NewClient(nil).timeout; d != DefaultCallTimeout {
		t.Fatalf("default timeout = %v", d)
	}
	if d := NewClientTimeout(nil, 0).timeout; d != DefaultCallTimeout {
		t.Fatalf("zero must select the default, got %v", d)
	}
}

func TestFaultDecodeWithinTimeout(t *testing.T) {
	srv := NewServer()
	srv.Register("F", "Boom", func(*xmlutil.Node) (*xmlutil.Node, error) {
		return nil, fmt.Errorf("deliberate failure")
	})
	if err := srv.Start("127.0.0.1:0", nil); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewClientTimeout(nil, 2*time.Second)
	_, err := cli.Call(srv.ServiceURL("F"), "Boom", nil)
	if !IsFault(err) {
		t.Fatalf("want fault, got %v", err)
	}
	var f *Fault
	if !errors.As(err, &f) || f.Service != "F" || f.Operation != "Boom" ||
		!strings.Contains(f.Message, "deliberate failure") {
		t.Fatalf("fault fields = %+v", f)
	}
}

func TestTracePropagationAcrossHop(t *testing.T) {
	telA := telemetry.New("caller")
	telB := telemetry.New("server")
	srv := NewServer()
	srv.SetTelemetry(telB)
	var gotSpan *telemetry.Span
	srv.RegisterCtx("T", "Op", func(_ context.Context, sp *telemetry.Span, _ *xmlutil.Node) (*xmlutil.Node, error) {
		gotSpan = sp
		return xmlutil.NewNode("OK"), nil
	})
	if err := srv.Start("127.0.0.1:0", nil); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli := NewClient(nil)
	root := telA.StartSpan("client.root", nil)
	if _, err := cli.CallSpan(root, srv.ServiceURL("T"), "Op", nil); err != nil {
		t.Fatal(err)
	}
	root.End(nil)
	if gotSpan == nil {
		t.Fatal("traced handler did not receive a span")
	}
	if gotSpan.TraceID != root.TraceID {
		t.Fatalf("server span trace %s != caller trace %s", gotSpan.TraceID, root.TraceID)
	}
	if gotSpan.ParentID != root.SpanID {
		t.Fatalf("server span parent %s != caller span %s", gotSpan.ParentID, root.SpanID)
	}
	// The server's tracez shows the propagated correlation ID.
	var b strings.Builder
	if err := telB.WriteTraces(&b, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "trace="+root.TraceID) {
		t.Fatalf("server tracez missing trace id:\n%s", b.String())
	}
	// Server metrics counted the call.
	if telB.Counter("glare_rpc_server_requests_total",
		telemetry.L("service", "T"), telemetry.L("op", "Op")).Value() != 1 {
		t.Fatal("server request counter not incremented")
	}
}

func TestCallWithoutSpanStartsFreshServerTrace(t *testing.T) {
	tel := telemetry.New("server")
	srv := NewServer()
	srv.SetTelemetry(tel)
	srv.Register("T", "Op", func(*xmlutil.Node) (*xmlutil.Node, error) {
		return xmlutil.NewNode("OK"), nil
	})
	if err := srv.Start("127.0.0.1:0", nil); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := NewClient(nil).Call(srv.ServiceURL("T"), "Op", nil); err != nil {
		t.Fatal(err)
	}
	recent := tel.Tracer().Recent(0)
	if len(recent) != 1 || recent[0].TraceID == "" || recent[0].ParentID != "" {
		t.Fatalf("unexpected server spans: %+v", recent)
	}
}

func TestAdminEndpoints(t *testing.T) {
	tel := telemetry.New("agrid01")
	srv := NewServer()
	srv.SetTelemetry(tel)
	srv.Register("T", "Op", func(*xmlutil.Node) (*xmlutil.Node, error) {
		return xmlutil.NewNode("OK"), nil
	})
	if err := srv.Start("127.0.0.1:0", nil); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewClient(nil)
	if _, err := cli.Call(srv.ServiceURL("T"), "Op", nil); err != nil {
		t.Fatal(err)
	}
	get := func(path string) (int, string) {
		resp, err := http.Get(srv.BaseURL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get(MetricsPath); code != 200 ||
		!strings.Contains(body, `glare_rpc_server_requests_total{service="T",op="Op"} 1`) {
		t.Fatalf("/metrics: %d\n%s", code, body)
	}
	if code, body := get(HealthPath); code != 200 ||
		!strings.Contains(body, `"status":"ok"`) || !strings.Contains(body, `"site":"agrid01"`) {
		t.Fatalf("/healthz: %d %s", code, body)
	}
	if code, body := get(TracesPath); code != 200 || !strings.Contains(body, "srv:T.Op") {
		t.Fatalf("/tracez: %d\n%s", code, body)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Fatalf("unknown admin path: %d", code)
	}
	// Without telemetry the admin tree stays dark.
	bare := NewServer()
	if err := bare.Start("127.0.0.1:0", nil); err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	resp, err := http.Get(bare.BaseURL() + MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("telemetry-less /metrics: %d", resp.StatusCode)
	}
}
