// Command lam-model inspects and converts model artifacts in a
// registry.
//
// Usage:
//
//	lam-model info     -registry ./models -name grid-hybrid [-version 3] [-json]
//	lam-model convert  -registry ./models -name grid-hybrid [-version 3]
//	lam-model convert  -registry ./models -name grid-hybrid -all
//
// info decodes one stored version and prints its artifact format, its
// lamb1 version, payload kind, estimator structure, tree/node counts,
// node layout, encoded size and (for lamb1) the CRC32-C trailer
// checksum, alongside the registry metadata. -json emits the same as
// one JSON object for scripting.
//
// convert migrates a legacy version — jsonv1, or lamb1 before the
// latest version (3) — to the latest lamb1 in place. Predictions are
// bit-identical across formats, so this is safe on live registries: the
// new artifact is renamed into place before the old one is removed, and
// a reader mid-convert still loads a consistent version. Converting a
// version already at the latest lamb1 version is a no-op. -all converts
// every version of the name.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"lam"
	"lam/internal/artifact"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "info":
		runInfo(os.Args[2:])
	case "convert":
		runConvert(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "lam-model: unknown subcommand %q\n\n", os.Args[1])
		usage()
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  lam-model info     -registry DIR -name NAME [-version N] [-json]
  lam-model convert  -registry DIR -name NAME [-version N | -all]

convert migrates legacy jsonv1 versions to lamb1, the format every
save writes.
-version 0 (the default) means the latest version.
`)
	os.Exit(2)
}

// openArgs are the flags every subcommand shares.
func openArgs(fs *flag.FlagSet) (regDir, name *string, version *int) {
	regDir = fs.String("registry", "", "registry directory (required)")
	name = fs.String("name", "", "registry model name (required)")
	version = fs.Int("version", 0, "version number (0 = latest)")
	return
}

func openRegistry(regDir, name string) *lam.Registry {
	if regDir == "" || name == "" {
		fatal(fmt.Errorf("-registry and -name are required"))
	}
	reg, err := lam.OpenRegistry(regDir)
	if err != nil {
		fatal(err)
	}
	return reg
}

func runInfo(args []string) {
	fs := flag.NewFlagSet("lam-model info", flag.ExitOnError)
	regDir, name, version := openArgs(fs)
	asJSON := fs.Bool("json", false, "emit one JSON object instead of text")
	fs.Parse(args)

	reg := openRegistry(*regDir, *name)
	info, meta, err := reg.ArtifactInfo(*name, *version)
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		out := struct {
			Info artifact.Info `json:"artifact"`
			Meta lam.ModelMeta `json:"meta"`
		}{info, meta}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("%s v%d\n", meta.Name, meta.Version)
	fmt.Printf("  format:     %s\n", info.Format)
	if info.Version > 0 {
		fmt.Printf("  version:    %d\n", info.Version)
	}
	fmt.Printf("  kind:       %s\n", info.Kind)
	fmt.Printf("  estimator:  %s\n", info.Estimator)
	if info.Trees > 0 || info.Nodes > 0 {
		fmt.Printf("  trees:      %d\n", info.Trees)
		fmt.Printf("  nodes:      %d\n", info.Nodes)
	}
	if info.NodeLayout != "" {
		fmt.Printf("  layout:     %s\n", info.NodeLayout)
	}
	fmt.Printf("  size:       %d bytes\n", info.SizeBytes)
	if info.CRC32 != 0 {
		fmt.Printf("  crc32c:     %08x\n", info.CRC32)
	}
	if meta.Workload != "" {
		fmt.Printf("  workload:   %s\n", meta.Workload)
	}
	if meta.Machine != "" {
		fmt.Printf("  machine:    %s\n", meta.Machine)
	}
	if meta.TrainSize > 0 {
		fmt.Printf("  train size: %d\n", meta.TrainSize)
	}
	if meta.TestMAPE > 0 {
		fmt.Printf("  test MAPE:  %.2f%%\n", meta.TestMAPE)
	}
	fmt.Printf("  created:    %s\n", meta.CreatedAt.Format("2006-01-02 15:04:05 MST"))
}

func runConvert(args []string) {
	fs := flag.NewFlagSet("lam-model convert", flag.ExitOnError)
	regDir, name, version := openArgs(fs)
	all := fs.Bool("all", false, "convert every version of the name")
	fs.Parse(args)

	reg := openRegistry(*regDir, *name)
	versions := []int{*version}
	if *all {
		if *version != 0 {
			fatal(fmt.Errorf("-all and -version are mutually exclusive"))
		}
		list, err := reg.List()
		if err != nil {
			fatal(err)
		}
		versions = versions[:0]
		for _, m := range list {
			if m.Name == *name {
				versions = append(versions, m.Version)
			}
		}
		if len(versions) == 0 {
			fatal(fmt.Errorf("no versions of %q in %s", *name, *regDir))
		}
	}
	for _, v := range versions {
		meta, err := reg.Convert(*name, v)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s v%d: %s\n", meta.Name, meta.Version, meta.Format)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lam-model:", err)
	os.Exit(1)
}
