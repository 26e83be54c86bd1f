// Package mobilesec is the public API of a secure-mobile-appliance
// platform simulator reproducing "Securing Mobile Appliances: New
// Challenges for the System Designer" (Raghunathan, Ravi, Hattangady,
// Quisquater — DATE 2003).
//
// The paper surveys the system-design problem of securing battery-powered
// wireless devices. This library builds that whole platform from scratch
// on the Go standard library:
//
//   - crypto substrate: DES/3DES, AES, RC4, RC2, SHA-1, MD5, HMAC,
//     RSA (CRT, blinding, fault detection), Diffie-Hellman, HMAC-DRBG and
//     a simulated hardware TRNG (internal/crypto/...);
//   - protocol substrate: a WTLS/SSL-style handshake + record protocol, a
//     WEP-style link layer, an ESP-style network layer, and a layered
//     stack composing them (internal/wtls, internal/wep, internal/esp,
//     internal/stack);
//   - platform models: the paper's embedded-processor catalog, crypto
//     accelerator / protocol-engine architectures, battery and radio
//     energy models, and the calibrated cost model behind Figures 3-4
//     (internal/proc, internal/energy, internal/radio, internal/cost);
//   - tamper resistance: executable timing, DPA, RSA-CRT fault and WEP
//     attacks with their countermeasures (internal/attack/...);
//   - secure execution environment: hash-chained secure boot, sealed key
//     storage, secure RAM/ROM worlds and DRM (internal/see).
//
// This facade re-exports the pieces a downstream user composes, plus
// convenience constructors for the paper's reference platforms. The
// benchmarks in bench_test.go regenerate every figure; see EXPERIMENTS.md
// for paper-vs-measured numbers.
package mobilesec

import (
	"repro/internal/arq"
	"repro/internal/bearer"
	"repro/internal/biometric"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/crypto/dh"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rsa"
	"repro/internal/energy"
	"repro/internal/proc"
	"repro/internal/radio"
	"repro/internal/see"
	"repro/internal/setpay"
	"repro/internal/smartcard"
	"repro/internal/stack"
	"repro/internal/suite"
	"repro/internal/wep"
	"repro/internal/wtls"
)

// Platform modelling (Figures 3, 4, 6).
type (
	// Platform is the modular base architecture of Figure 6.
	Platform = core.Platform
	// PlatformConfig assembles a Platform.
	PlatformConfig = core.PlatformConfig
	// SessionReport prices one protocol session on a platform.
	SessionReport = core.SessionReport
	// Processor is a parametric CPU model from the paper's catalog.
	Processor = proc.Processor
	// Architecture is a CPU plus optional security hardware.
	Architecture = proc.Architecture
	// Battery is a finite energy store with a drain ledger.
	Battery = energy.Battery
	// Radio is a wireless link energy/airtime model.
	Radio = radio.Radio
	// GapSurface is the Figure 3 demand surface.
	GapSurface = core.GapSurface
	// BatteryFigure is the Figure 4 result.
	BatteryFigure = core.BatteryFigure
	// LossFigure is the transactions-vs-BER result on a lossy link.
	LossFigure = core.LossFigure
	// LossPoint is one BER column of a LossFigure.
	LossPoint = core.LossPoint
	// ArchitectureGapRow is one rung of the accelerator ablation (B1).
	ArchitectureGapRow = core.ArchitectureGapRow
	// Revision is one protocol revision on the Figure 2 timeline.
	Revision = core.Revision
	// Concern is one sector of the Figure 1 taxonomy.
	Concern = core.Concern
)

// Protocols.
type (
	// Conn is a WTLS connection endpoint.
	Conn = wtls.Conn
	// Config configures a WTLS endpoint.
	Config = wtls.Config
	// Certificate is a compact WTLS-style certificate.
	Certificate = wtls.Certificate
	// CA issues certificates.
	CA = wtls.CA
	// SessionCache enables session resumption.
	SessionCache = wtls.SessionCache
	// Metrics is a connection's modeled work.
	Metrics = wtls.Metrics
	// Suite is one negotiable cipher suite.
	Suite = suite.Suite
	// Stack composes protection layers (Figure 5).
	Stack = stack.Stack
	// WEPEndpoint is a WEP-style link endpoint.
	WEPEndpoint = wep.Endpoint
	// DRBG is the deterministic random bit generator.
	DRBG = prng.DRBG
	// TRNG is the simulated hardware entropy source.
	TRNG = prng.TRNG
	// RSAPrivateKey is an RSA private key with CRT parameters.
	RSAPrivateKey = rsa.PrivateKey
	// RSAPublicKey is an RSA public key.
	RSAPublicKey = rsa.PublicKey
	// DHGroup is a Diffie-Hellman group.
	DHGroup = dh.Group
	// SIM is a GSM-style subscriber identity module.
	SIM = bearer.SIM
	// AuthCenter is the bearer network's subscriber database.
	AuthCenter = bearer.AuthCenter
	// BearerChannel is an A5/1-ciphered air-interface link.
	BearerChannel = bearer.Channel
	// AdaptivePolicy selects cipher suites by battery state
	// (Section 3.3's battery-aware design).
	AdaptivePolicy = core.AdaptivePolicy
	// PolicyTier maps a battery band to a suite.
	PolicyTier = core.PolicyTier
	// LifetimeResult compares fixed vs adaptive security lifetimes.
	LifetimeResult = core.LifetimeResult
	// BiometricSubject is a person with a ground-truth biometric.
	BiometricSubject = biometric.Subject
	// BiometricMatcher verifies scans against an enrolled template.
	BiometricMatcher = biometric.Matcher
	// UserVerifier is the complete user-identification block
	// (biometric + PIN fallback + lockout) of Figure 1.
	UserVerifier = biometric.Verifier
	// SmartCard is the ISO 7816-style card of the Section 3.4 attacks.
	SmartCard = smartcard.Card
	// SmartCardConfig assembles a SmartCard.
	SmartCardConfig = smartcard.Config
	// APDUCommand is a card command.
	APDUCommand = smartcard.Command
	// APDUResponse is a card response.
	APDUResponse = smartcard.Response
	// FaultyTransport is a deterministic lossy-link fault injector.
	FaultyTransport = chaos.FaultyTransport
	// FaultConfig sets loss, corruption, duplication, reordering and
	// burst parameters for a FaultyTransport.
	FaultConfig = chaos.Config
	// BurstModel is the Gilbert-Elliott two-state burst-loss channel.
	BurstModel = chaos.Burst
	// FaultStats counts the faults a FaultyTransport injected.
	FaultStats = chaos.Stats
	// ARQEndpoint is one end of the retransmission reliability layer.
	ARQEndpoint = arq.Endpoint
	// ARQConfig tunes the ARQ window, timers and energy hooks.
	ARQConfig = arq.Config
	// ARQStats counts ARQ traffic, retransmissions and errors.
	ARQStats = arq.Stats
	// PacketServer is a serial packet processor (software or engine).
	PacketServer = proc.Server
	// PacketQueueStats summarizes a packet-queue simulation.
	PacketQueueStats = proc.QueueStats
	// OrderInfo is the SET-style purchase half of a dual signature.
	OrderInfo = setpay.OrderInfo
	// PaymentInfo is the SET-style card half of a dual signature.
	PaymentInfo = setpay.PaymentInfo
	// DualSignature binds an order to a payment with non-repudiation
	// (the application-level security of Section 2).
	DualSignature = setpay.DualSignature
)

// Secure execution environment (Figure 6, Sections 3.4/4.1).
type (
	// BootImage is one secure-boot stage.
	BootImage = see.Image
	// BootROM pins the boot chain root.
	BootROM = see.ROM
	// KeyStore is sealed secure storage.
	KeyStore = see.KeyStore
	// MemoryMap is the secure RAM/ROM model.
	MemoryMap = see.MemoryMap
	// DRMAgent enforces content licenses.
	DRMAgent = see.DRMAgent
	// Rights is a content-license grant.
	Rights = see.Rights
)

// Re-exported constructors and figure generators.
var (
	// NewDRBG creates a seeded deterministic random bit generator.
	NewDRBG = prng.NewDRBG
	// NewTRNG creates a simulated hardware TRNG.
	NewTRNG = prng.NewTRNG
	// NewPlatform builds a Figure 6 platform.
	NewPlatform = core.NewPlatform
	// NewBattery creates a battery.
	NewBattery = energy.NewBattery
	// NewSensorRadio returns the paper's 10 Kbps sensor radio.
	NewSensorRadio = radio.NewSensorRadio
	// NewWLANRadio returns an 802.11-class radio at the given Mbps.
	NewWLANRadio = radio.NewWLANRadio
	// ProcessorCatalog returns the paper's MIPS ladder (Section 3.2).
	ProcessorCatalog = proc.Catalog
	// ProcessorByName looks up a catalog processor.
	ProcessorByName = proc.ByName
	// SoftwareOnly wraps a CPU with no security hardware.
	SoftwareOnly = proc.SoftwareOnly
	// WithISAExtensions models SmartMIPS/SecurCore-class cores.
	WithISAExtensions = proc.WithISAExtensions
	// WithCryptoAccelerator models Discretix/Safenet-class engines.
	WithCryptoAccelerator = proc.WithCryptoAccelerator
	// WithProtocolEngine models MOSES-class protocol engines.
	WithProtocolEngine = proc.WithProtocolEngine

	// ComputeGapSurface regenerates Figure 3.
	ComputeGapSurface = core.ComputeGapSurface
	// ComputeGapSurfaceFor regenerates Figure 3 for any workload.
	ComputeGapSurfaceFor = core.ComputeGapSurfaceFor
	// DefaultLatencies is Figure 3's latency axis.
	DefaultLatencies = core.DefaultLatencies
	// DefaultRates is Figure 3's data-rate axis.
	DefaultRates = core.DefaultRates
	// ComputeBatteryFigure regenerates Figure 4 analytically.
	ComputeBatteryFigure = core.ComputeBatteryFigure
	// SimulateBatteryFigure regenerates Figure 4 by simulation.
	SimulateBatteryFigure = core.SimulateBatteryFigure
	// ComputeLossFigure prices 1 KB transactions against channel BER
	// analytically (Figure 4 on a lossy link).
	ComputeLossFigure = core.ComputeLossFigure
	// SimulateLossFigure cross-checks the loss figure over a real
	// chaos+ARQ link, itemizing retransmission energy in the ledger.
	SimulateLossFigure = core.SimulateLossFigure
	// DefaultLossBERs is the loss figure's bit-error-rate axis.
	DefaultLossBERs = core.DefaultLossBERs
	// EvolutionTimeline regenerates Figure 2's data.
	EvolutionTimeline = core.EvolutionTimeline
	// RenderTimeline renders Figure 2 as text.
	RenderTimeline = core.RenderTimeline
	// RevisionRate computes revisions/year for a protocol family.
	RevisionRate = core.RevisionRate
	// AcceleratorAblation runs experiment B1.
	AcceleratorAblation = core.AcceleratorAblation
	// Concerns returns the Figure 1 taxonomy.
	Concerns = core.Concerns

	// NewCA creates a certificate authority.
	NewCA = wtls.NewCA
	// NewSessionCache creates a resumption cache with the default LRU
	// entry cap.
	NewSessionCache = wtls.NewSessionCache
	// WTLSClient wraps a transport as a WTLS client.
	WTLSClient = wtls.Client
	// WTLSServer wraps a transport as a WTLS server.
	WTLSServer = wtls.Server
	// AllSuites lists every registered cipher suite.
	AllSuites = suite.All
	// SuiteByName looks up a cipher suite.
	SuiteByName = suite.ByName
	// DefaultSuites is the server-side preference list.
	DefaultSuites = suite.DefaultServerPreference
	// NewStack creates an empty layered stack over a transport.
	NewStack = stack.New
	// NewDuplexPipe returns two connected in-memory transports (the
	// simulated radio link).
	NewDuplexPipe = stack.Pipe
	// NewWEPEndpoint creates a WEP link endpoint.
	NewWEPEndpoint = wep.NewEndpoint
	// NewFaultyTransport wraps a transport with fault injection.
	NewFaultyTransport = chaos.New
	// NewARQEndpoint runs an ARQ reliability layer over a frame
	// transport (stacks usually use Stack.PushARQ instead).
	NewARQEndpoint = arq.New
	// ErrLinkDown is returned when ARQ gives up after max retries.
	ErrLinkDown = arq.ErrLinkDown
	// GenerateRSAKey generates an RSA key pair.
	GenerateRSAKey = rsa.GenerateKey
	// Oakley2 returns the 1024-bit MODP DH group.
	Oakley2 = dh.Oakley2

	// BuildBootChain hashes a boot chain and returns its ROM root.
	BuildBootChain = see.BuildChain
	// VerifyBootChain verifies a boot chain against its ROM root.
	VerifyBootChain = see.Boot
	// NewKeyStore creates sealed secure storage.
	NewKeyStore = see.NewKeyStore
	// NewDRMAgent creates a DRM enforcement agent.
	NewDRMAgent = see.NewDRMAgent
	// StandardMemoryLayout builds the Figure 6 secure memory map.
	StandardMemoryLayout = see.StandardLayout

	// NewSIM provisions a SIM with a subscriber key.
	NewSIM = bearer.NewSIM
	// NewAuthCenter creates a bearer authentication center.
	NewAuthCenter = bearer.NewAuthCenter
	// NewBearerChannel opens an A5/1-ciphered channel.
	NewBearerChannel = bearer.NewChannel
	// A5Frame generates one frame's A5/1 keystream bursts.
	A5Frame = bearer.A5Frame

	// NewAdaptivePolicy builds a battery-aware suite policy.
	NewAdaptivePolicy = core.NewAdaptivePolicy
	// DefaultAdaptivePolicy is the three-tier default policy.
	DefaultAdaptivePolicy = core.DefaultAdaptivePolicy
	// CompareAdaptiveLifetime measures the adaptive-security payoff.
	CompareAdaptiveLifetime = core.CompareAdaptiveLifetime
	// SessionEnergyJ prices one session on a CPU and radio.
	SessionEnergyJ = core.SessionEnergyJ

	// NewBiometricSubject draws a random ground-truth biometric.
	NewBiometricSubject = biometric.NewSubject
	// EnrollBiometric averages scans into a template.
	EnrollBiometric = biometric.Enroll
	// BiometricRates estimates FAR/FRR for a threshold.
	BiometricRates = biometric.Rates
	// NewUserVerifier builds the user-identification block.
	NewUserVerifier = biometric.NewVerifier

	// NewSmartCard creates a simulated smart card.
	NewSmartCard = smartcard.New
	// SoftwarePacketServer models protocol processing on the host CPU.
	SoftwarePacketServer = proc.SoftwareServer
	// EnginePacketServer models a dedicated protocol engine.
	EnginePacketServer = proc.EngineServer
	// SimulatePacketQueue runs the Section 4.2.3 queueing simulation.
	SimulatePacketQueue = proc.SimulateQueue
	// CBRStream generates a constant-bit-rate packet stream.
	CBRStream = proc.CBRStream

	// SignDual produces a SET-style dual signature.
	SignDual = setpay.Sign
	// VerifyDualAsMerchant checks a dual signature from the merchant's
	// (card-blind) view.
	VerifyDualAsMerchant = setpay.VerifyAsMerchant
	// VerifyDualAsGateway checks a dual signature from the gateway's
	// (order-blind) view.
	VerifyDualAsGateway = setpay.VerifyAsGateway
)

// Cost-model workload identifiers (re-exported for figure parameters).
const (
	Alg3DES = cost.DES3
	AlgDES  = cost.DES
	AlgAES  = cost.AES
	AlgRC4  = cost.RC4
	AlgRC2  = cost.RC2
	AlgSHA1 = cost.SHA1
	AlgMD5  = cost.MD5

	HandshakeRSA1024 = cost.HandshakeRSA1024
	HandshakeRSA768  = cost.HandshakeRSA768
	HandshakeRSA512  = cost.HandshakeRSA512
	HandshakeDH1024  = cost.HandshakeDH1024
	HandshakeResume  = cost.HandshakeResume
)

// WEPIVSequential and WEPIVConstant are the link-layer IV policies.
const (
	WEPIVSequential = wep.IVSequential
	WEPIVConstant   = wep.IVConstant
)
