package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"glare/internal/telemetry"
	"glare/internal/xmlutil"
)

// bigAnswer is a response body whose envelope outgrows the largest buffer
// the server keeps for reuse.
func bigAnswer(msg string) *xmlutil.Node {
	n := xmlutil.NewNode("Rows")
	for i := 0; i < 3000; i++ {
		n.Elem("Row", msg).SetAttr("i", fmt.Sprint(i))
	}
	return n
}

// Server responses are encoded into pooled buffers. Under concurrent calls
// every caller must still get exactly its own answer, answers too large to
// pool included, and application and overload faults must still parse.
func TestPooledEnvelopesUnderConcurrency(t *testing.T) {
	if n := len(bigAnswer("w0-c0").String()); n <= maxPooledEnvelope {
		t.Fatalf("big answer is %d bytes, want more than %d", n, maxPooledEnvelope)
	}
	srv := NewServer()
	srv.RegisterService("Pool", map[string]Handler{
		"Echo": func(body *xmlutil.Node) (*xmlutil.Node, error) { return xmlutil.NewNode("Said", body.Text), nil },
		"Big":  func(body *xmlutil.Node) (*xmlutil.Node, error) { return bigAnswer(body.Text), nil },
		"Fail": func(body *xmlutil.Node) (*xmlutil.Node, error) { return nil, fmt.Errorf("refused %s", body.Text) },
	})
	srv.RegisterCtx("Pool", "Expire", func(context.Context, *telemetry.Span, *xmlutil.Node) (*xmlutil.Node, error) {
		return nil, context.DeadlineExceeded
	})
	if err := srv.Start("127.0.0.1:0", nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli := NewClient(nil)
	addr := srv.ServiceURL("Pool")

	call := func(i int, msg string) error {
		switch {
		case i%50 == 0: // rarely: big answers are slow to check under -race
			resp, err := cli.Call(addr, "Big", xmlutil.NewNode("M", msg))
			if err != nil || !resp.Equal(bigAnswer(msg)) {
				return fmt.Errorf("Big %q: wrong answer (err %v)", msg, err)
			}
		case i%8 == 1:
			_, err := cli.Call(addr, "Fail", xmlutil.NewNode("M", msg))
			var f *Fault
			if !errors.As(err, &f) || f.Message != "refused "+msg {
				return fmt.Errorf("Fail %q: got %v", msg, err)
			}
		case i%8 == 2:
			_, err := cli.Call(addr, "Expire", xmlutil.NewNode("M", msg))
			var u *Unavailable
			if !errors.As(err, &u) || u.Reason != "server-expired" {
				return fmt.Errorf("Expire %q: got %v", msg, err)
			}
		default:
			resp, err := cli.Call(addr, "Echo", xmlutil.NewNode("M", msg))
			if err != nil || resp.Name != "Said" || resp.Text != msg {
				return fmt.Errorf("Echo %q: got %v (err %v)", msg, resp, err)
			}
		}
		return nil
	}

	const workers, calls = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				// Distinct per call, and with every character the encoder escapes.
				msg := fmt.Sprintf(`w%d-c%d <&>"'%s`, w, i, strings.Repeat("x", i%17))
				if err := call(i, msg); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
