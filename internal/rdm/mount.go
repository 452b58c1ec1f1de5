package rdm

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"glare/internal/activity"
	"glare/internal/lease"
	"glare/internal/telemetry"
	"glare/internal/transport"
	"glare/internal/wsrf"
	"glare/internal/xmlutil"
)

// Mount exposes the RDM service (and the site's registries) on a transport
// server. The RDM operation table is the protocol the distributed GLARE
// framework speaks between sites. The server also gets the site's
// telemetry bundle, which enables its /metrics, /healthz and /tracez
// admin endpoints.
func (s *Service) Mount(srv *transport.Server) {
	srv.SetTelemetry(s.tel)
	s.ATR.Mount(srv)
	s.ADR.Mount(srv)
	s.agent.Mount(srv)
	s.localIndex.Mount(srv)
	srv.RegisterCtxService(ServiceName, map[string]transport.CtxHandler{
		// --- client entry points -------------------------------------
		"GetDeployments": func(ctx context.Context, sp *telemetry.Span, body *xmlutil.Node) (*xmlutil.Node, error) {
			if body == nil {
				return nil, fmt.Errorf("GetDeployments: missing request")
			}
			typeName := body.AttrOr("type", body.Text)
			method := Method(body.AttrOr("method", string(MethodExpect)))
			allow := body.AttrOr("deploy", "auto") != "never"
			deps, err := s.GetDeploymentsCtx(ctx, sp, typeName, method, allow)
			if err != nil {
				return nil, err
			}
			return deploymentList(deps), nil
		},
		"RegisterType": func(_ context.Context, _ *telemetry.Span, body *xmlutil.Node) (*xmlutil.Node, error) {
			t, err := activity.TypeFromXML(body)
			if err != nil {
				return nil, err
			}
			e, err := s.RegisterType(t)
			if err != nil {
				return nil, err
			}
			return e.ToXML("TypeEPR"), nil
		},
		"RegisterDeployment": func(_ context.Context, _ *telemetry.Span, body *xmlutil.Node) (*xmlutil.Node, error) {
			d, err := activity.DeploymentFromXML(body)
			if err != nil {
				return nil, err
			}
			e, err := s.RegisterDeployment(d)
			if err != nil {
				return nil, err
			}
			return e.ToXML("DeploymentEPR"), nil
		},
		"Undeploy": func(_ context.Context, _ *telemetry.Span, body *xmlutil.Node) (*xmlutil.Node, error) {
			if err := s.Undeploy(textOf(body)); err != nil {
				return nil, err
			}
			return xmlutil.NewNode("Undeployed"), nil
		},
		"Instantiate": func(_ context.Context, _ *telemetry.Span, body *xmlutil.Node) (*xmlutil.Node, error) {
			if body == nil {
				return nil, fmt.Errorf("Instantiate: missing request")
			}
			ticket, _ := strconv.ParseUint(body.AttrOr("ticket", "0"), 10, 64)
			err := s.Instantiate(body.AttrOr("name", ""), body.AttrOr("client", ""),
				ticket, body.AttrOr("args", ""))
			if err != nil {
				return nil, err
			}
			return xmlutil.NewNode("Started"), nil
		},

		// --- overlay resolution protocol -----------------------------
		"Resolve": s.answerResolve,
		"RegistryDigest": func(context.Context, *telemetry.Span, *xmlutil.Node) (*xmlutil.Node, error) {
			// Anti-entropy: the caller merges the blob locations this
			// site knows.
			return s.RegistryDigest(), nil
		},
		"ArtifactFetch": func(_ context.Context, _ *telemetry.Span, body *xmlutil.Node) (*xmlutil.Node, error) {
			// Artifact grid: serve a held blob's verified metadata, or
			// pull it through from origin when the caller elected this
			// site the blob's rendezvous home.
			return s.artifactFetchXML(body)
		},
		"ArtifactStatus": func(context.Context, *telemetry.Span, *xmlutil.Node) (*xmlutil.Node, error) {
			// CAS summary for `glarectl artifacts`: holdings, hit/miss,
			// bytes saved. Answers enabled="false" when the CAS is off.
			return s.ArtifactStatusXML(), nil
		},
		"HistoryXport": func(_ context.Context, _ *telemetry.Span, body *xmlutil.Node) (*xmlutil.Node, error) {
			// Ring-archive export for `glarectl history` and the
			// super-peer rollup.
			return s.historyXportXML(body)
		},
		"StoreStatus": func(context.Context, *telemetry.Span, *xmlutil.Node) (*xmlutil.Node, error) {
			// Durable-store summary for `glarectl store status`; answers
			// enabled="false" on memory-only sites.
			return s.StoreStatusXML(), nil
		},
		"DeployStatus": func(context.Context, *telemetry.Span, *xmlutil.Node) (*xmlutil.Node, error) {
			// Deployment-engine summary for `glarectl builds`: in-flight
			// builds, queue pressure, quarantined types, resumable builds.
			return s.DeployStatusXML(), nil
		},
		"LoadStatus": func(context.Context, *telemetry.Span, *xmlutil.Node) (*xmlutil.Node, error) {
			// Admission-controller summary for `glarectl status`: per-class
			// limit, inflight, queue depth and shed counts. Answers
			// enabled="false" when admission control is off.
			return loadStatusXML(srv.Admission()), nil
		},
		"SiteAttrs": func(context.Context, *telemetry.Span, *xmlutil.Node) (*xmlutil.Node, error) {
			return attrsToXML(s.site.Attrs), nil
		},
		"DeployLocal": func(ctx context.Context, sp *telemetry.Span, body *xmlutil.Node) (*xmlutil.Node, error) {
			if body == nil {
				return nil, fmt.Errorf("DeployLocal: missing request")
			}
			method := Method(body.AttrOr("method", string(MethodExpect)))
			tNode := body.First("ActivityTypeEntry")
			var t *activity.Type
			if tNode != nil {
				parsed, err := activity.TypeFromXML(tNode)
				if err != nil {
					return nil, err
				}
				t = parsed
			} else {
				name := body.AttrOr("type", "")
				found, ok := s.lookupType(ctx, sp, name)
				if !ok {
					return nil, fmt.Errorf("DeployLocal: unknown type %q", name)
				}
				t = found
			}
			report, err := s.deployLocal(sp, t, method, true)
			if err != nil {
				return nil, err
			}
			out := deploymentList(report.Deployments)
			out.Add(report.Timings.toXML())
			return out, nil
		},

		// --- leasing --------------------------------------------------
		"AcquireLease": func(_ context.Context, _ *telemetry.Span, body *xmlutil.Node) (*xmlutil.Node, error) {
			if body == nil {
				return nil, fmt.Errorf("AcquireLease: missing request")
			}
			secs, _ := strconv.Atoi(body.AttrOr("seconds", "0"))
			t, err := s.Leases.Acquire(
				body.AttrOr("deployment", ""), body.AttrOr("client", ""),
				lease.Kind(body.AttrOr("kind", string(lease.Shared))),
				time.Duration(secs)*time.Second)
			if err != nil {
				return nil, err
			}
			n := xmlutil.NewNode("Ticket")
			n.SetAttr("id", strconv.FormatUint(t.ID, 10))
			n.SetAttr("deployment", t.Deployment)
			n.SetAttr("kind", string(t.Kind))
			return n, nil
		},
		"ReleaseLease": func(_ context.Context, _ *telemetry.Span, body *xmlutil.Node) (*xmlutil.Node, error) {
			id, _ := strconv.ParseUint(textOf(body), 10, 64)
			if err := s.Leases.Release(id); err != nil {
				return nil, err
			}
			return xmlutil.NewNode("Released"), nil
		},

		// --- notification ---------------------------------------------
		"Subscribe": func(_ context.Context, _ *telemetry.Span, body *xmlutil.Node) (*xmlutil.Node, error) {
			if body == nil {
				return nil, fmt.Errorf("Subscribe: missing request")
			}
			topic := body.AttrOr("topic", wsrf.TopicDeployment)
			sinkURL := body.AttrOr("sink", "")
			if sinkURL == "" {
				return nil, fmt.Errorf("Subscribe: missing sink address")
			}
			id, err := s.broker.Subscribe(topic, wsrf.SinkFunc(func(n wsrf.Notification) {
				msg := xmlutil.NewNode("Notification")
				msg.SetAttr("topic", n.Topic)
				msg.SetAttr("producer", n.Producer)
				if n.Message != nil {
					msg.Add(n.Message.Clone())
				}
				_, _ = s.client.Call(sinkURL, "Notify", msg)
			}))
			if err != nil {
				return nil, err
			}
			n := xmlutil.NewNode("Subscription")
			n.SetAttr("id", strconv.FormatUint(uint64(id), 10))
			n.SetAttr("topic", topic)
			return n, nil
		},
	})
	if s.repl != nil {
		s.MountReplication(srv)
	}
}

// loadStatusXML renders the site's admission-controller state for the
// LoadStatus wire op; a nil controller answers enabled="false".
func loadStatusXML(adm *transport.Admission) *xmlutil.Node {
	n := xmlutil.NewNode("Load")
	if adm == nil {
		n.SetAttr("enabled", "false")
		return n
	}
	n.SetAttr("enabled", "true")
	for _, cs := range adm.Status() {
		cn := n.Elem("Class")
		cn.SetAttr("name", cs.Class)
		cn.SetAttr("limit", strconv.Itoa(cs.Limit))
		cn.SetAttr("inflight", strconv.Itoa(cs.Inflight))
		cn.SetAttr("queued", strconv.Itoa(cs.Queued))
		cn.SetAttr("sheds", strconv.FormatUint(cs.Sheds, 10))
		cn.SetAttr("expired", strconv.FormatUint(cs.Expired, 10))
	}
	return n
}

func textOf(body *xmlutil.Node) string {
	if body == nil {
		return ""
	}
	return body.Text
}

func deploymentList(ds []*activity.Deployment) *xmlutil.Node {
	n := xmlutil.NewNode("Deployments")
	for _, d := range ds {
		n.Add(d.ToXML())
	}
	return n
}
