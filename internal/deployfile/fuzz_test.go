package deployfile_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"glare/internal/deployfile"
	"glare/internal/site"
	"glare/internal/workload"
	"glare/internal/xmlutil"
)

// Deploy-files come from providers, so the parser and the resolver face
// input from outside the program: whatever the document, ParseString,
// Order and Resolve return an error or a result, never a panic. A build
// that orders resolves to one bounded command per step.
func FuzzDeployfile(f *testing.F) {
	for _, s := range xmlLiterals(f, "*_test.go") {
		f.Add(s)
	}
	repo := site.StandardUniverse()
	for _, name := range repo.Names() {
		a, _ := repo.ByName(name)
		f.Add(buildXML(workload.SynthesizeBuild(a)))
	}
	f.Fuzz(func(t *testing.T, doc string) {
		b, err := deployfile.ParseString(doc)
		if err != nil {
			return
		}
		steps, err := b.Order()
		if err != nil {
			return
		}
		cmds, err := b.Resolve(nil)
		if err != nil {
			t.Fatalf("Order accepted %q but Resolve failed: %v", doc, err)
		}
		if len(cmds) != len(steps) {
			t.Fatalf("%d steps resolved to %d commands", len(steps), len(cmds))
		}
		for _, c := range cmds {
			if c.Timeout <= 0 {
				t.Fatalf("step %q resolved without a timeout", c.Step.Name)
			}
		}
	})
}

// xmlLiterals returns every string literal in the matching Go files that
// looks like an XML document.
func xmlLiterals(tb testing.TB, pattern string) []string {
	files, err := filepath.Glob(pattern)
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			tb.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(strings.TrimSpace(s), "<") {
					out = append(out, s)
				}
			}
			return true
		})
	}
	return out
}

// buildXML renders a build as the deploy-file a provider would publish.
func buildXML(b *deployfile.Build) string {
	root := xmlutil.NewNode("Build").SetAttr("name", b.Name)
	if b.BaseDir != "" {
		root.SetAttr("baseDir", b.BaseDir)
	}
	if b.DefaultTask != "" {
		root.SetAttr("defaultTask", b.DefaultTask)
	}
	for _, st := range b.Steps {
		sn := root.Elem("Step").SetAttr("name", st.Name).SetAttr("task", st.Task)
		if len(st.Depends) > 0 {
			sn.SetAttr("depends", strings.Join(st.Depends, ","))
		}
		if st.BaseDir != "" {
			sn.SetAttr("baseDir", st.BaseDir)
		}
		if st.Timeout > 0 {
			sn.SetAttr("timeout", strconv.Itoa(int(st.Timeout.Seconds())))
		}
		for _, kv := range st.Envs {
			sn.Elem("Env").SetAttr("name", kv.Name).SetAttr("value", kv.Value)
		}
		for _, kv := range st.Props {
			sn.Elem("Property").SetAttr("name", kv.Name).SetAttr("value", kv.Value)
		}
		for _, d := range st.Dialog {
			sn.Elem("Interact").SetAttr("expect", d.Expect).SetAttr("send", d.Send)
		}
	}
	return root.Indent()
}
