// Package workload defines the applications and activity types used by
// the examples and the paper's experiments: the Section-2 imaging stack
// (Imaging/POVray/JPOVray with Java and Ant prerequisites) and the three
// evaluation applications of Table 1 (Wien2k, Invmod, Counter), together
// with their provider-published deploy-files.
package workload

import (
	"fmt"
	"strings"

	"glare/internal/activity"
	"glare/internal/deployfile"
	"glare/internal/site"
)

// DeployFileHost is the notional server provider deploy-files live on.
const DeployFileHost = "http://dps.uibk.ac.at/~glare/deployfiles/"

// DeployFileURL returns the canonical deploy-file URL of an artifact.
func DeployFileURL(artifactName string) string {
	return DeployFileHost + strings.ToLower(artifactName) + ".build"
}

// SynthesizeBuild generates the deploy-file for an artifact: the standard
// download → expand → configure → build → install pipeline of paper
// Fig. 9, with the artifact's interaction dialog embedded as
// send/expect patterns.
func SynthesizeBuild(a *site.Artifact) *deployfile.Build {
	lower := strings.ToLower(a.Name)
	workDir := "/tmp/" + lower
	homeVar := strings.ToUpper(a.Name) + "_HOME"
	srcDir := workDir + "/" + a.UnpackDir

	b := &deployfile.Build{
		Name:        a.Name,
		BaseDir:     workDir,
		DefaultTask: "Deploy",
	}
	init := deployfile.Step{
		Name: "Init", Task: "mkdir-p", BaseDir: "/tmp",
		Envs: []deployfile.KV{
			{Name: homeVar, Value: "$DEPLOYMENT_DIR/" + lower},
			{Name: "WORK_DIR", Value: workDir},
		},
		Props: []deployfile.KV{
			{Name: "argument", Value: "$WORK_DIR"},
			{Name: "argument", Value: "$DEPLOYMENT_DIR"},
		},
	}
	download := deployfile.Step{
		Name: "Download", Depends: []string{"Init"},
		Task: "$GLOBUS_LOCATION/bin/globus-url-copy", BaseDir: workDir,
		Props: []deployfile.KV{
			{Name: "source", Value: a.URL},
			{Name: "destination", Value: "file://" + workDir + "/" + lower + ".tgz"},
			{Name: "md5sum", Value: a.MD5()},
			{Name: "sha256sum", Value: a.SHA256()},
		},
	}
	expand := deployfile.Step{
		Name: "Expand", Depends: []string{"Download"}, Task: "tar xvfz", BaseDir: workDir,
		Props: []deployfile.KV{{Name: "argument", Value: workDir + "/" + lower + ".tgz"}},
	}
	b.Steps = append(b.Steps, init, download, expand)

	prev := "Expand"
	// Build tool: ant for build.xml projects, autoconf otherwise; JDK-style
	// artifacts carry a self-installer.
	switch {
	case hasSource(a, "build.xml"):
		b.Steps = append(b.Steps, deployfile.Step{
			Name: "Deploy", Depends: []string{prev}, Task: "ant", BaseDir: srcDir,
			Props: []deployfile.KV{{Name: "argument", Value: "Deploy"}},
		})
	case hasSource(a, "install.sh"):
		b.Steps = append(b.Steps, deployfile.Step{
			Name: "Deploy", Depends: []string{prev},
			Task: "sh " + srcDir + "/install.sh", BaseDir: srcDir,
			Props:  []deployfile.KV{{Name: "argument", Value: "$" + homeVar}},
			Dialog: dialogOf(a),
		})
	default:
		cfg := deployfile.Step{
			Name: "Configure", Depends: []string{prev}, Task: "./configure", BaseDir: srcDir,
			Props:  []deployfile.KV{{Name: "argument", Value: "--prefix=$" + homeVar}},
			Dialog: dialogOf(a),
		}
		b.Steps = append(b.Steps, cfg,
			deployfile.Step{Name: "Build", Depends: []string{"Configure"}, Task: "make", BaseDir: srcDir},
			deployfile.Step{Name: "Deploy", Depends: []string{"Build"}, Task: "make", BaseDir: srcDir,
				Props: []deployfile.KV{{Name: "argument", Value: "install"}}},
		)
	}
	return b
}

func hasSource(a *site.Artifact, name string) bool {
	for _, t := range a.SourceTree {
		if t.RelPath == name || strings.HasSuffix(t.RelPath, "/"+name) {
			return true
		}
	}
	return false
}

func dialogOf(a *site.Artifact) []deployfile.Interaction {
	var out []deployfile.Interaction
	for _, d := range a.ConfigureDialog {
		// Keep the pattern short and robust, as a provider would.
		pat := d.Prompt
		if i := strings.IndexAny(pat, "[(?"); i > 0 {
			pat = strings.TrimSpace(pat[:i])
		}
		out = append(out, deployfile.Interaction{Expect: pat, Send: d.Answer})
	}
	return out
}

// Resolver maps deploy-file URLs to parsed builds, standing in for the
// provider's web server. GLARE fetches deploy-files by URL at
// deployment time.
type Resolver struct {
	builds map[string]*deployfile.Build
}

// NewResolver synthesizes deploy-files for every artifact in the universe.
func NewResolver(repo *site.Repo) *Resolver {
	r := &Resolver{builds: make(map[string]*deployfile.Build)}
	for _, name := range repo.Names() {
		a, _ := repo.ByName(name)
		r.builds[DeployFileURL(name)] = SynthesizeBuild(a)
	}
	return r
}

// Fetch returns the build published at url.
func (r *Resolver) Fetch(url string) (*deployfile.Build, error) {
	b, ok := r.builds[url]
	if !ok {
		return nil, fmt.Errorf("workload: no deploy-file at %s", url)
	}
	return b, nil
}

// Publish adds (or replaces) a deploy-file at a URL.
func (r *Resolver) Publish(url string, b *deployfile.Build) { r.builds[url] = b }

// ImagingTypes returns the Section-2 activity type hierarchy: abstract
// Imaging, ImageConversion and POVray plus concrete JPOVray (depending on
// Java and Ant) and the toolchain types themselves.
func ImagingTypes() []*activity.Type {
	return []*activity.Type{
		{Name: "Imaging", Abstract: true, Domain: "Imaging",
			Functions: []activity.Function{{Name: "export", Inputs: []string{"image"}, Outputs: []string{"file"}}}},
		{Name: "ImageConversion", Abstract: true, Base: []string{"Imaging"}, Domain: "Imaging",
			Functions: []activity.Function{{Name: "convert", Inputs: []string{"scene.pov"}, Outputs: []string{"image.png"}}}},
		{Name: "POVray", Abstract: true, Base: []string{"ImageConversion"}, Domain: "Imaging",
			Functions: []activity.Function{{Name: "render", Inputs: []string{"scene.pov"}, Outputs: []string{"image.png"}}}},
		{Name: "JPOVray", Base: []string{"POVray"}, Domain: "Imaging",
			Dependencies: []string{"Java", "Ant"},
			Installation: &activity.Installation{
				Mode:          activity.ModeOnDemand,
				Constraints:   activity.Constraints{Platform: "Intel", OS: "Linux", Arch: "32bit"},
				DeployFileURL: DeployFileURL("JPOVray"),
			},
			Artifact: "JPOVray"},
		{Name: "Java", Domain: "Toolchain",
			Installation: &activity.Installation{Mode: activity.ModeOnDemand,
				DeployFileURL: DeployFileURL("Java")},
			Artifact: "Java"},
		{Name: "Ant", Domain: "Toolchain",
			Dependencies: []string{"Java"},
			Installation: &activity.Installation{Mode: activity.ModeOnDemand,
				DeployFileURL: DeployFileURL("Ant")},
			Artifact: "Ant"},
	}
}

// EvaluationTypes returns the Table 1 applications as activity types.
func EvaluationTypes() []*activity.Type {
	return []*activity.Type{
		{Name: "Wien2k", Domain: "Physics",
			Installation: &activity.Installation{Mode: activity.ModeOnDemand,
				Constraints:   activity.Constraints{OS: "Linux"},
				DeployFileURL: DeployFileURL("Wien2k")},
			Artifact: "Wien2k"},
		{Name: "Invmod", Domain: "Hydrology",
			Installation: &activity.Installation{Mode: activity.ModeOnDemand,
				Constraints:   activity.Constraints{OS: "Linux"},
				DeployFileURL: DeployFileURL("Invmod")},
			Artifact: "Invmod"},
		// Counter is a GT4 service built with ant, so it drags the Java
		// toolchain in — which is why its Table 1 totals are the largest.
		{Name: "Counter", Domain: "Service",
			Dependencies: []string{"Java", "Ant"},
			Installation: &activity.Installation{Mode: activity.ModeOnDemand,
				DeployFileURL: DeployFileURL("Counter")},
			Artifact: "Counter"},
	}
}

// SyntheticTypes generates n registrable concrete types for the
// registry-scalability experiments (Figs. 10/11).
func SyntheticTypes(n int) []*activity.Type {
	out := make([]*activity.Type, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, &activity.Type{
			Name:   fmt.Sprintf("Synthetic%04d", i),
			Domain: "Synthetic",
			Functions: []activity.Function{
				{Name: "run", Inputs: []string{"in"}, Outputs: []string{"out"}},
			},
		})
	}
	return out
}
