package experiments

import (
	"fmt"
	"io"
	"time"

	"glare/internal/rdm"
	"glare/internal/vo"
	"glare/internal/workload"
)

// Table1Row is one (application, method) cell column of the paper's
// Table 1: "Time spent (in ms) in different operations."
type Table1Row struct {
	Method        string
	App           string
	TypeAddition  time.Duration
	Communication time.Duration
	Installation  time.Duration
	Registration  time.Duration
	Notification  time.Duration
	MethodOvhd    time.Duration
	Total         time.Duration
}

// Operations is the sum of the five operation rows, the paper's Total:
// Total without the method overhead.
func (r Table1Row) Operations() time.Duration {
	return r.TypeAddition + r.Communication + r.Installation + r.Registration + r.Notification
}

// RunTable1 deploys Wien2k, Invmod and Counter on a fresh site with both
// deployment methods, under the virtual clock, and reports the per-phase
// breakdown.
func RunTable1() ([]Table1Row, error) {
	var rows []Table1Row
	for _, method := range []rdm.Method{rdm.MethodExpect, rdm.MethodCoG} {
		for _, ty := range workload.EvaluationTypes() {
			// A fresh single-site VO per cell: every deployment starts
			// from a clean machine, as in the paper.
			v, err := vo.Build(vo.Options{Sites: 1})
			if err != nil {
				return nil, err
			}
			// The imaging stack provides the Java/Ant toolchain types the
			// Counter service depends on — and, as on the paper's testbed,
			// the toolchain itself is already installed on the site before
			// the measured deployment begins.
			if err := v.RegisterImagingStack(0); err != nil {
				v.Close()
				return nil, err
			}
			for _, tool := range []string{"Java", "Ant"} {
				toolType, ok := v.Nodes[0].RDM.LookupType(tool)
				if !ok {
					v.Close()
					return nil, fmt.Errorf("table1: toolchain type %s missing", tool)
				}
				if _, err := v.Nodes[0].RDM.DeployLocal(toolType, rdm.MethodExpect); err != nil {
					v.Close()
					return nil, fmt.Errorf("table1: pre-installing %s: %w", tool, err)
				}
			}
			rep, err := v.Nodes[0].RDM.DeployLocal(ty, method)
			v.Close()
			if err != nil {
				return nil, fmt.Errorf("table1: %s via %s: %w", ty.Name, method, err)
			}
			t := rep.Timings
			rows = append(rows, Table1Row{
				Method:        methodLabel(method),
				App:           ty.Name,
				TypeAddition:  t.TypeAddition,
				Communication: t.Communication,
				Installation:  t.Installation,
				Registration:  t.Registration,
				Notification:  t.Notification,
				MethodOvhd:    t.MethodOverhead,
				Total:         t.Total(),
			})
		}
	}
	return rows, nil
}

func methodLabel(m rdm.Method) string {
	if m == rdm.MethodCoG {
		return "Java CoG"
	}
	return "Expect"
}

// PrintTable1 renders the rows in the paper's layout (operations as rows,
// applications as columns, one block per method). Each block ends in two
// totals: over the operation rows, as the paper sums them, and with the
// method overhead added.
func PrintTable1(w io.Writer, rows []Table1Row) {
	byKey := map[string]Table1Row{}
	for _, r := range rows {
		byKey[r.Method+"/"+r.App] = r
	}
	apps := []string{"Wien2k", "Invmod", "Counter"}
	for _, method := range []string{"Expect", "Java CoG"} {
		fmt.Fprintf(w, "\nDeployment method: %s (ms)\n", method)
		var out [][]string
		line := func(label string, get func(Table1Row) time.Duration) {
			row := []string{label}
			for _, app := range apps {
				row = append(row, ms(get(byKey[method+"/"+app])))
			}
			out = append(out, row)
		}
		line("Activity Type Addition", func(r Table1Row) time.Duration { return r.TypeAddition })
		line("Communication Overhead", func(r Table1Row) time.Duration { return r.Communication })
		line("Activity Installation/Deployment", func(r Table1Row) time.Duration { return r.Installation })
		line("Activity Deployment Registration", func(r Table1Row) time.Duration { return r.Registration })
		line("Notification", func(r Table1Row) time.Duration { return r.Notification })
		line(method+" Overhead", func(r Table1Row) time.Duration { return r.MethodOvhd })
		line("Total overhead for meta-scheduler (operations)", Table1Row.Operations)
		line("Total overhead for meta-scheduler (with method overhead)", func(r Table1Row) time.Duration { return r.Total })
		writeTable(w, append([]string{"Operation/Overhead"}, apps...), out)
	}
}
