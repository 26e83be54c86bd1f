// Command secsim runs the full platform simulation: a handset (Figure 6
// base architecture) securely boots, brings up the layered protocol
// hierarchy of Figure 5 (WEP link security, ESP network security, WTLS
// transport security), completes an m-commerce style transaction with a
// gateway, and prints the security-processing and energy bill.
//
// With -concerns it prints the Figure 1 taxonomy and which module of this
// repository realizes each concern.
package main

import (
	"flag"
	"fmt"
	"hash"
	"io"
	"os"

	mobilesec "repro"
	"repro/internal/cost"
	"repro/internal/crypto/des"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/sha1"
	"repro/internal/esp"
	"repro/internal/obs"
	"repro/internal/see"
	"repro/internal/stack"
	"repro/internal/wep"
	"repro/internal/wtls"
)

func main() {
	concerns := flag.Bool("concerns", false, "print the Figure 1 security-concern taxonomy and exit")
	cpuName := flag.String("cpu", "ARM7-cell-phone", "handset processor from the catalog")
	accel := flag.String("arch", "sw-only", "architecture: sw-only, isa-ext, crypto-accel, protocol-engine")
	kbytes := flag.Int("kb", 16, "application kilobytes to transfer")
	o := obs.BindFlags(flag.CommandLine)
	flag.Parse()
	if err := o.Activate(); err != nil {
		fmt.Fprintf(os.Stderr, "secsim: %v\n", err)
		os.Exit(1)
	}
	defer o.Close()

	if *concerns {
		fmt.Println("Figure 1 — security concerns in a mobile appliance")
		for _, c := range mobilesec.Concerns() {
			fmt.Printf("  %-28s %s\n  %-28s realized by %s\n", c.Name, c.Description, "", c.RealizedBy)
		}
		o.Finish("secsim")
		return
	}
	if err := run(*cpuName, *accel, *kbytes); err != nil {
		fmt.Fprintf(os.Stderr, "secsim: %v\n", err)
		os.Exit(1)
	}
	o.Finish("secsim")
}

func pickArch(cpu *mobilesec.Processor, name string) (*mobilesec.Architecture, error) {
	switch name {
	case "sw-only":
		return mobilesec.SoftwareOnly(cpu), nil
	case "isa-ext":
		return mobilesec.WithISAExtensions(cpu), nil
	case "crypto-accel":
		return mobilesec.WithCryptoAccelerator(cpu), nil
	case "protocol-engine":
		return mobilesec.WithProtocolEngine(cpu), nil
	default:
		return nil, fmt.Errorf("unknown architecture %q", name)
	}
}

func run(cpuName, archName string, kbytes int) error {
	cpu, err := mobilesec.ProcessorByName(cpuName)
	if err != nil {
		return err
	}
	arch, err := pickArch(cpu, archName)
	if err != nil {
		return err
	}
	radio, err := mobilesec.NewWLANRadio(2)
	if err != nil {
		return err
	}
	platform, err := mobilesec.NewPlatform(mobilesec.PlatformConfig{
		Name: "handset", Arch: arch, BatteryJ: 10_000, Radio: radio,
		Seed: []byte("secsim"),
	})
	if err != nil {
		return err
	}

	// Secure boot (Figure 6 / Section 4.1).
	images := []*see.Image{
		{Name: "bootloader", Code: []byte("stage-1 loader")},
		{Name: "os", Code: []byte("handset kernel")},
		{Name: "wallet", Code: []byte("m-commerce trusted app")},
	}
	rom, err := mobilesec.BuildBootChain(images)
	if err != nil {
		return err
	}
	bootRep, err := platform.SecureBoot(rom, images)
	if err != nil {
		return err
	}
	fmt.Printf("secure boot: %d stages verified (%v)\n\n", len(bootRep.Stages), bootRep.Stages)

	// PKI.
	ca, err := mobilesec.NewCA("OperatorRoot", mobilesec.NewDRBG([]byte("ca")), 512)
	if err != nil {
		return err
	}
	serverKey, err := mobilesec.GenerateRSAKey(mobilesec.NewDRBG([]byte("gw")), 512)
	if err != nil {
		return err
	}
	cert, err := ca.Issue("wap.gateway", 1, &serverKey.PublicKey)
	if err != nil {
		return err
	}

	// Figure 5 hierarchy: WEP below, ESP in the middle, WTLS on top.
	handsetSide, gatewaySide := mobilesec.NewDuplexPipe()
	handsetStack, err := buildStack(handsetSide, "h2g", "g2h")
	if err != nil {
		return err
	}
	gatewayStack, err := buildStack(gatewaySide, "g2h", "h2g")
	if err != nil {
		return err
	}

	client := mobilesec.WTLSClient(handsetStack.Top(), &mobilesec.Config{
		Rand:       mobilesec.NewDRBG([]byte("client")),
		RootCA:     &ca.Key.PublicKey,
		ServerName: "wap.gateway",
	})
	server := mobilesec.WTLSServer(gatewayStack.Top(), &mobilesec.Config{
		Rand:        mobilesec.NewDRBG([]byte("server")),
		Certificate: cert,
		PrivateKey:  serverKey,
	})

	srvErr := make(chan error, 1)
	payload := kbytes * 1024
	go func() {
		if err := server.Handshake(); err != nil {
			srvErr <- err
			return
		}
		buf := make([]byte, 4096)
		received := 0
		for received < payload {
			n, err := server.Read(buf)
			if err != nil {
				srvErr <- err
				return
			}
			received += n
		}
		// Echo a short receipt.
		_, err := server.Write([]byte("PAYMENT-ACK"))
		srvErr <- err
	}()

	if err := client.Handshake(); err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	st := client.State()
	fmt.Printf("WTLS handshake complete: suite %s (resumed=%v)\n", st.Suite.Name, st.Resumed)

	msg := make([]byte, payload)
	if _, err := client.Write(msg); err != nil {
		return err
	}
	ack := make([]byte, 11)
	if _, err := io.ReadFull(client, ack); err != nil {
		return err
	}
	if err := <-srvErr; err != nil {
		return fmt.Errorf("gateway: %w", err)
	}
	fmt.Printf("transferred %d KB, gateway answered %q\n\n", kbytes, ack)

	// Per-layer accounting (Figure 5).
	fmt.Println("layered stack accounting (handset side):")
	fmt.Printf("  %-6s %12s %12s %14s\n", "layer", "payload out", "wire out", "instr (model)")
	for _, s := range handsetStack.Report() {
		fmt.Printf("  %-6s %12d %12d %14.0f\n", s.Name, s.PayloadOut, s.FrameOut, s.Instr)
	}

	// Platform bill: WTLS metrics + stack instruction cost + wire bytes.
	m := client.Metrics()
	m.BulkInstr += handsetStack.TotalInstr()
	wireOut := handsetStack.WireBytesOut()
	wireIn := gatewayStack.WireBytesOut()
	rep, err := platform.AccountSession(m, wireOut, wireIn)
	if err != nil {
		return err
	}
	fmt.Printf("\nplatform bill on %s / %s:\n", cpu.Name, arch.Name)
	fmt.Printf("  effective instructions  %14.0f\n", rep.EffectiveInstr)
	fmt.Printf("  CPU time                %14.3f s\n", rep.CPUTimeSec)
	fmt.Printf("  airtime                 %14.3f s\n", rep.AirtimeSec)
	fmt.Printf("  CPU energy              %14.4f J\n", rep.CPUEnergyJ)
	fmt.Printf("  radio energy            %14.4f J\n", rep.RadioEnergyJ)
	fmt.Printf("  battery remaining       %14.1f J\n", rep.BatteryLeftJ)
	fmt.Printf("  sessions per charge     %14d\n", platform.SessionsUntilFlat(rep))
	fmt.Println()
	fmt.Print(platform.DescribePlatform())
	return nil
}

// buildStack assembles WEP + ESP under the given transport.
func buildStack(transport io.ReadWriter, txSeed, rxSeed string) (*mobilesec.Stack, error) {
	s := mobilesec.NewStack(transport)
	wepEP, err := wep.NewEndpoint([]byte{0x13, 0x22, 0x31, 0x40, 0x5F}, wep.IVSequential)
	if err != nil {
		return nil, err
	}
	if err := s.Push("wep", wepEP, cost.InstrPerByte(cost.RC4)+4); err != nil {
		return nil, err
	}
	mkSA := func(seed string) (*esp.SA, error) {
		block, err := des.NewTripleCipher([]byte("twenty-four byte esp key"))
		if err != nil {
			return nil, err
		}
		sa, err := esp.NewSA(0x5afe, block, func() hash.Hash { return sha1.New() },
			[]byte("esp-integrity-key"), prng.NewDRBG([]byte(seed)))
		if err != nil {
			return nil, err
		}
		sa.SetCostModel(cost.DES3, cost.SHA1)
		return sa, nil
	}
	out, err := mkSA(txSeed)
	if err != nil {
		return nil, err
	}
	in, err := mkSA(rxSeed)
	if err != nil {
		return nil, err
	}
	if err := s.Push("esp", &stack.ESPPair{Out: out, In: in},
		cost.BulkInstrPerByte(cost.DES3, cost.SHA1)); err != nil {
		return nil, err
	}
	_ = wtls.AlertCloseNotify
	return s, nil
}
