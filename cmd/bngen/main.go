// Command bngen inspects and exports the built-in synthetic networks.
//
//	bngen -list                     # network names
//	bngen -net alarm                # structural summary (Table I row)
//	bngen -net alarm -json          # full structure as JSON
//	bngen -net alarm -sample 1000   # sampled training events as CSV
//	bngen -net alarm -bif           # model in BIF interchange format
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"distbayes/internal/bif"
	"distbayes/internal/netgen"
)

type jsonVariable struct {
	Name    string `json:"name"`
	Card    int    `json:"card"`
	Parents []int  `json:"parents,omitempty"`
}

type jsonNetwork struct {
	Name      string         `json:"name"`
	Nodes     int            `json:"nodes"`
	Edges     int            `json:"edges"`
	Params    int            `json:"params"`
	Variables []jsonVariable `json:"variables"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bngen:", err)
		os.Exit(1)
	}
}

// run is main without the process: it parses args, writes the requested
// view to w and returns instead of exiting.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("bngen", flag.ExitOnError)
	var (
		list   = fs.Bool("list", false, "list built-in network names")
		asBIF  = fs.Bool("bif", false, "emit the model (with default CPTs) in BIF format")
		name   = fs.String("net", "", "network name")
		asJSON = fs.Bool("json", false, "emit the structure as JSON")
		sample = fs.Int("sample", 0, "emit N sampled events as CSV")
		seed   = fs.Uint64("seed", 1, "sampling seed")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag has already exited

	if *list {
		for _, n := range netgen.Names() {
			fmt.Fprintln(w, n)
		}
		return nil
	}
	if *name == "" {
		fs.Usage()
		return fmt.Errorf("-net is required (or -list)")
	}
	if *sample < 0 {
		return fmt.Errorf("-sample = %d, want >= 0", *sample)
	}
	net, err := netgen.ByName(*name)
	if err != nil {
		return err
	}

	switch {
	case *asBIF:
		model, err := netgen.ModelByName(*name)
		if err != nil {
			return err
		}
		data, err := bif.Marshal(*name, model)
		if err != nil {
			return err
		}
		_, err = w.Write(data)
		return err
	case *asJSON:
		out := jsonNetwork{
			Name:   *name,
			Nodes:  net.Len(),
			Edges:  net.NumEdges(),
			Params: net.NumParams(),
		}
		for i := 0; i < net.Len(); i++ {
			v := net.Var(i)
			out.Variables = append(out.Variables, jsonVariable{
				Name: v.Name, Card: v.Card, Parents: v.Parents,
			})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	case *sample > 0:
		model, err := netgen.ModelByName(*name)
		if err != nil {
			return err
		}
		s := model.NewSampler(*seed)
		x := make([]int, net.Len())
		cells := make([]string, net.Len())
		for e := 0; e < *sample; e++ {
			s.Sample(x)
			for i, v := range x {
				cells[i] = strconv.Itoa(v)
			}
			fmt.Fprintln(w, strings.Join(cells, ","))
		}
	default:
		fmt.Fprintf(w, "network      %s\n", *name)
		fmt.Fprintf(w, "nodes        %d\n", net.Len())
		fmt.Fprintf(w, "edges        %d\n", net.NumEdges())
		fmt.Fprintf(w, "parameters   %d\n", net.NumParams())
		fmt.Fprintf(w, "cpt cells    %d\n", net.NumCells())
		fmt.Fprintf(w, "max indegree %d\n", net.MaxInDegree())
		fmt.Fprintf(w, "max card     %d\n", net.MaxCard())
	}
	return nil
}
