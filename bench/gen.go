package main

import (
	"fmt"
	"math/rand"
	"strings"

	"glare/internal/activity"
)

// Input generation. Everything a workload sends to the grid is produced
// here from the seed, before the timed window; the grid only ever sees the
// generated values. The same seed yields byte-identical inputs.

var (
	platforms = []string{"Intel", "AMD", "PowerPC", "Sparc"}
	oses      = []string{"Linux", "Solaris", "AIX", "Darwin"}
	arches    = []string{"32bit", "64bit"}
)

const domains = 20

func pick(r *rand.Rand, from []string) string { return from[r.Intn(len(from))] }

// concreteType draws one installable concrete type. base may be empty.
func concreteType(r *rand.Rand, name, base string) *activity.Type {
	t := &activity.Type{
		Name:   name,
		Domain: fmt.Sprintf("Domain%02d", r.Intn(domains)),
		Functions: []activity.Function{
			{Name: "run", Inputs: []string{"in"}, Outputs: []string{"out"}},
		},
		Installation: &activity.Installation{
			Mode: activity.ModeOnDemand,
			Constraints: activity.Constraints{
				Platform: pick(r, platforms), OS: pick(r, oses), Arch: pick(r, arches),
			},
			DeployFileURL: "http://dps.uibk.ac.at/~glare/deployfiles/" + strings.ToLower(name) + ".build",
		},
	}
	if base != "" {
		t.Base = []string{base}
	}
	return t
}

// genHierarchy draws n types: 5 % abstract roots, the rest concrete types
// that each extend one of the roots and carry a domain, installation
// constraints and a deploy-file URL.
func genHierarchy(r *rand.Rand, n int) []*activity.Type {
	nAbs := n / 20
	if nAbs == 0 {
		nAbs = 1
	}
	out := make([]*activity.Type, 0, n)
	for i := 0; i < nAbs; i++ {
		out = append(out, &activity.Type{
			Name: fmt.Sprintf("Abstract%04d", i), Abstract: true,
			Domain: fmt.Sprintf("Domain%02d", r.Intn(domains)),
		})
	}
	for i := nAbs; i < n; i++ {
		out = append(out, concreteType(r, fmt.Sprintf("Type%05d", i), out[r.Intn(nAbs)].Name))
	}
	return out
}

// genFlat draws n concrete types named <prefix>NNNNNNN with no base.
func genFlat(r *rand.Rand, prefix string, n int) []*activity.Type {
	out := make([]*activity.Type, n)
	for i := range out {
		out[i] = concreteType(r, fmt.Sprintf("%s%07d", prefix, i), "")
	}
	return out
}

func execDeployment(name, typeName, siteName string) *activity.Deployment {
	return &activity.Deployment{
		Name: name, Type: typeName, Kind: activity.KindExecutable, Site: siteName,
		Path: "/opt/glare/" + strings.ToLower(typeName) + "/bin/" + name,
		Home: "/opt/glare/" + strings.ToLower(typeName),
	}
}

// query is one query_xpath op: the expression and the number of result
// nodes the type list (not the engine) says it must return.
type query struct {
	Expr string
	Want int
}

// genQueries draws n queries over types in three shapes in equal shares:
// by name, by base type, and by domain plus an installation constraint.
func genQueries(r *rand.Rand, types []*activity.Type, n int) []query {
	var abstract []string
	for _, t := range types {
		if t.Abstract {
			abstract = append(abstract, t.Name)
		}
	}
	out := make([]query, n)
	for i := range out {
		switch i % 3 {
		case 0:
			out[i] = query{fmt.Sprintf("//ActivityTypeEntry[@name='%s']", types[r.Intn(len(types))].Name), 1}
		case 1:
			base := pick(r, abstract)
			want := 0
			for _, t := range types {
				if len(t.Base) > 0 && t.Base[0] == base {
					want++
				}
			}
			out[i] = query{fmt.Sprintf("//ActivityTypeEntry[BaseType='%s']", base), want}
		default:
			domain, os := fmt.Sprintf("Domain%02d", r.Intn(domains)), pick(r, oses)
			want := 0
			for _, t := range types {
				if t.Domain == domain && t.Installation != nil && t.Installation.Constraints.OS == os {
					want++
				}
			}
			out[i] = query{fmt.Sprintf("//ActivityTypeEntry[@type='%s']/Installation/Constraints[os='%s']", domain, os), want}
		}
	}
	return out
}

// resolveOp is one resolve_grid op: the index of the type to discover and
// whether this is the first time its client asks for it.
type resolveOp struct {
	Type  int
	First bool
}

// firstTouchEvery is the length of the blocks a resolve_grid client's ops
// are cut into: each block holds exactly one first touch, at a drawn
// position, so 5 % of any run's ops are cache misses whatever the seed.
const firstTouchEvery = 20

// genResolves draws n ops for `clients` independent closed-loop clients
// (op i belongs to client i%clients) over a pool of `pool` types. Each
// client owns the types whose index is congruent to its number, so a
// repeat is always a repeat in that client's own program order. One op in
// every firstTouchEvery of a client is the first touch of a fresh type (a
// cache miss); the rest repeat an already touched one, drawn Zipf(1.2)
// over touch order. It fails when the pool cannot supply the first touches.
func genResolves(r *rand.Rand, pool, n, clients int) ([]resolveOp, error) {
	touched := make([][]int, clients)
	firstAt := make([]int, clients) // where in its current block a client's first touch falls
	zipf := rand.NewZipf(r, 1.2, 1, uint64(pool))
	out := make([]resolveOp, n)
	for i := range out {
		c, k := i%clients, i/clients
		if k%firstTouchEvery == 0 {
			firstAt[c] = r.Intn(firstTouchEvery)
			if k == 0 {
				firstAt[c] = 0 // nothing to repeat yet
			}
		}
		if k%firstTouchEvery == firstAt[c] {
			next := c + clients*len(touched[c])
			if next >= pool {
				return nil, fmt.Errorf("%d ops need more first touches than a pool of %d types has", n, pool)
			}
			touched[c] = append(touched[c], next)
			out[i] = resolveOp{next, true}
			continue
		}
		k64 := zipf.Uint64()
		for k64 >= uint64(len(touched[c])) {
			k64 = zipf.Uint64()
		}
		out[i] = resolveOp{touched[c][k64], false}
	}
	return out, nil
}
