package rdm

import (
	"context"
	"fmt"
	"strconv"

	"glare/internal/activity"
	"glare/internal/semantic"
	"glare/internal/telemetry"
	"glare/internal/transport"
	"glare/internal/xmlutil"
)

// SearchTypes ranks this site's registered activity types against a
// semantic capability query (the paper's §6 future-work item: "activity
// types can be searched for based on a semantic description").
func (s *Service) SearchTypes(q semantic.Query) ([]semantic.Match, error) {
	h, err := s.ATR.Hierarchy()
	if err != nil {
		return nil, err
	}
	return semantic.Search(h, q), nil
}

// WrapService generates a web-service wrapper around an executable
// deployment, the paper's planned Otho-toolkit integration ("generation
// of wrapper services for legacy code"). The wrapper is hosted in the
// site container and registered as a service deployment of the same type;
// instantiating it runs the wrapped executable.
func (s *Service) WrapService(execName string) (*activity.Deployment, error) {
	d, ok := s.ADR.Get(execName)
	if !ok {
		return nil, fmt.Errorf("rdm: no such deployment %q", execName)
	}
	if d.Kind != activity.KindExecutable {
		return nil, fmt.Errorf("rdm: %q is not an executable deployment", execName)
	}
	wrapped := "WS-" + d.Name
	if _, exists := s.ADR.Get(wrapped); exists {
		return nil, fmt.Errorf("rdm: wrapper %q already exists", wrapped)
	}
	s.site.DeployService(wrapped, d.Home)
	w := &activity.Deployment{
		Name:    wrapped,
		Type:    d.Type,
		Kind:    activity.KindService,
		Site:    s.site.Attrs.Name,
		Address: s.agent.Self().ServiceURL(wrapped),
		Home:    d.Home,
		Env:     map[string]string{"WRAPS": d.Name},
	}
	if _, err := s.ADR.Register(w); err != nil {
		s.site.UndeployService(wrapped)
		return nil, err
	}
	return w, nil
}

// MountExtensions adds the future-work operations to a transport server.
// Kept separate from Mount so the baseline protocol matches the paper's
// surface exactly; vo mounts both.
func (s *Service) MountExtensions(srv *transport.Server) {
	srv.RegisterCtxService(ServiceName, map[string]transport.CtxHandler{
		"SearchTypes": func(_ context.Context, _ *telemetry.Span, body *xmlutil.Node) (*xmlutil.Node, error) {
			q := semantic.Query{}
			if body != nil {
				q.Function = body.AttrOr("function", "")
				q.Domain = body.AttrOr("domain", "")
				q.ConcreteOnly = body.AttrOr("concreteOnly", "") == "true"
				for _, in := range body.All("Input") {
					q.Inputs = append(q.Inputs, in.Text)
				}
				for _, out := range body.All("Output") {
					q.Outputs = append(q.Outputs, out.Text)
				}
			}
			matches, err := s.SearchTypes(q)
			if err != nil {
				return nil, err
			}
			out := xmlutil.NewNode("Matches")
			for _, m := range matches {
				mn := out.Elem("Match")
				mn.SetAttr("score", strconv.FormatFloat(m.Score, 'f', 3, 64))
				if m.Via != "" {
					mn.SetAttr("via", m.Via)
				}
				mn.Add(m.Type.ToXML())
			}
			return out, nil
		},
		"WrapService": func(_ context.Context, _ *telemetry.Span, body *xmlutil.Node) (*xmlutil.Node, error) {
			d, err := s.WrapService(textOf(body))
			if err != nil {
				return nil, err
			}
			return d.ToXML(), nil
		},
	})
}
