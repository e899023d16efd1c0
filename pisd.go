// Package pisd is a Go implementation of "Enabling Privacy-preserving
// Image-centric Social Discovery" (Yuan, Wang, Wang, Squicciarini, Ren —
// IEEE ICDCS 2014): friend discovery over encrypted images outsourced to
// an honest-but-curious cloud.
//
// # Architecture
//
// Three entities cooperate (paper Fig. 1):
//
//   - User clients extract SURF features from their preferred images,
//     quantize them against a shared Bag-of-Words vocabulary into an image
//     profile S, compute LSH metadata V, and upload encrypted images.
//   - The trusted service front end (Frontend) holds all keys, builds a
//     secure LSH+cuckoo index over the profiles, issues trapdoors and
//     ranks decrypted matches.
//   - The untrusted cloud (Cloud, or a remote process via CloudClient)
//     stores ciphertext only and answers trapdoor queries.
//
// # Quick start
//
//	sys, err := pisd.NewSystem(pisd.DefaultSystemConfig(1000))
//	...
//	sys.AddProfiles(uploads)          // service frontend initialization
//	matches, err := sys.Discover(profile, 5)
//
// See examples/ for complete programs, including the full image pipeline
// and a TCP-distributed deployment.
package pisd

import (
	"fmt"

	"pisd/internal/bow"
	"pisd/internal/cloud"
	"pisd/internal/core"
	"pisd/internal/crypt"
	"pisd/internal/fof"
	"pisd/internal/frontend"
	"pisd/internal/groups"
	"pisd/internal/imaging"
	"pisd/internal/lsh"
	"pisd/internal/obs"
	"pisd/internal/segstore"
	"pisd/internal/shard"
	"pisd/internal/sharing"
	"pisd/internal/subs"
	"pisd/internal/surf"
	"pisd/internal/transport"
)

// Re-exported building blocks. The aliases make the vetted internal
// implementations part of the public API without duplicating them.
type (
	// Image is a grayscale image fed to the feature extractor.
	Image = imaging.Image
	// Topic identifies a procedural image class of the synthetic corpus.
	Topic = imaging.Topic
	// Descriptor is a 64-D SURF feature vector.
	Descriptor = surf.Descriptor
	// Vocabulary is the shared visual-word vocabulary Δ.
	Vocabulary = bow.Vocabulary
	// Metadata is the user metadata V = {h_1(S), ..., h_l(S)}.
	Metadata = lsh.Metadata
	// LSHParams defines the shared LSH family h.
	LSHParams = lsh.Params
	// KeySet is the front-end secret key material K.
	KeySet = crypt.KeySet
	// Frontend is the trusted service front end SF.
	Frontend = frontend.Frontend
	// FrontendConfig parameterizes the front end.
	FrontendConfig = frontend.Config
	// Upload is one user's (S, V) contribution to index building.
	Upload = frontend.Upload
	// Match is one discovery recommendation.
	Match = frontend.Match
	// Cloud is the in-process untrusted cloud server CS.
	Cloud = cloud.Server
	// CloudServer serves a Cloud over TCP.
	CloudServer = transport.Server
	// CloudClient is a remote handle to a CloudServer.
	CloudClient = transport.Client
	// Index is the static secure similarity index I.
	Index = core.Index
	// DynIndex is the updatable secure index of Sec. III-D.
	DynIndex = core.DynIndex
	// DynClient drives secure update protocols against a DynIndex.
	DynClient = core.DynClient
	// DynUpdate is one operation of a batch profile update.
	DynUpdate = core.Update
	// Trapdoor is a secure discovery request t.
	Trapdoor = core.Trapdoor
	// SocialGraph is the friendship graph used for FoF filtering.
	SocialGraph = fof.Graph
	// SharingAuthority issues attribute keys for encrypted image sharing.
	SharingAuthority = sharing.Authority
	// SharingPolicy is a DNF attribute policy for shared images.
	SharingPolicy = sharing.Policy
	// Shard is one cloud shard's installable state (partitioned index +
	// owned encrypted profiles).
	Shard = frontend.Shard
	// DynShard is one cloud shard's dynamic state; a single cloud is the
	// one-shard build Frontend.BuildShardedDynamicIndex(uploads, 1, nil).
	DynShard = frontend.DynShard
	// DynNode is one shard's cloud surface for the dynamic scheme;
	// LocalShard, RemoteShard and ReplicaGroup all implement it.
	DynNode = frontend.DynNode
	// ShardNode is one shard's cloud surface (in-process or remote).
	ShardNode = shard.Node
	// LocalShard adapts an in-process Cloud as a shard node.
	LocalShard = shard.Local
	// RemoteShard adapts a TCP cloud server as a shard node.
	RemoteShard = shard.Remote
	// ShardPool fans discovery out across shard nodes and merges results.
	ShardPool = shard.Pool
	// ShardPoolConfig tunes fan-out timeouts, retries and owner routing.
	ShardPoolConfig = shard.Config
	// ReplicaNode is a shard node carrying the replication version/repair
	// surface; LocalShard and RemoteShard both implement it.
	ReplicaNode = shard.ReplicaNode
	// ReplicaGroup replicates one shard partition across R nodes behind
	// the plain ShardNode surface: reads fail over, writes fan out.
	ReplicaGroup = shard.ReplicaGroup
	// ReplicaGroupConfig tunes a replica group's dispatch behaviour.
	ReplicaGroupConfig = shard.GroupConfig
	// ReplicaStatus is a point-in-time view of one group member.
	ReplicaStatus = shard.ReplicaStatus
	// HealthProber demotes dead replicas and re-admits recovered ones.
	HealthProber = shard.Prober
	// HealthProberConfig tunes probe cadence and demotion thresholds.
	HealthProberConfig = shard.ProberConfig
	// ReplicaRepairer is the anti-entropy loop re-syncing lagging replicas.
	ReplicaRepairer = shard.Repairer
	// ReplicaRepairerConfig tunes the anti-entropy cadence.
	ReplicaRepairerConfig = shard.RepairerConfig
	// Rebalancer migrates partition state onto a newly joined replica in
	// bounded online chunks.
	Rebalancer = shard.Rebalancer
	// RepairNode is the replica surface the front end's repair closures
	// drive: a DynNode plus profile enumeration and index install;
	// ReplicaNode satisfies it.
	RepairNode = frontend.RepairNode
	// ReplicaMigration is the front-end closure set a Rebalancer drives.
	ReplicaMigration = frontend.ReplicaMigration
	// Group is one discovered social group.
	Group = groups.Group
	// GroupNeighbor is one per-user discovery result fed to grouping.
	GroupNeighbor = groups.Neighbor
	// GroupOptions tunes group discovery.
	GroupOptions = groups.Options
	// SegmentStore is the on-disk segmented index store that can back a
	// Cloud in place of the in-RAM index.
	SegmentStore = segstore.Store
	// SegmentInfo describes one live segment of a SegmentStore.
	SegmentInfo = segstore.SegmentInfo
	// SegmentCompactor merges small segments into larger generations.
	SegmentCompactor = segstore.Compactor
	// SegmentCompactorConfig tunes compaction fan-out and concurrency.
	SegmentCompactorConfig = segstore.CompactorConfig
	// SegmentBuilder streams upload batches into an on-disk segmented
	// index at the front end (bounded-memory builds).
	SegmentBuilder = frontend.SegmentBuilder
	// Serving is the static scheme's multi-core discovery path: admission
	// gate → search-pattern result cache → adaptive batch coalescer over
	// the shard fan-out (build with Frontend.NewServing).
	Serving = frontend.Serving
	// DynServing is the dynamic scheme's one search path and only
	// insert/delete entry point, with an optional result cache that
	// insert/delete invalidate exactly (Frontend.NewDynServing).
	DynServing = frontend.DynServing
	// ServingConfig tunes coalescing, admission control and the cache.
	ServingConfig = frontend.ServingConfig
	// ResultCache is the bounded search-pattern result cache.
	ResultCache = frontend.ResultCache
	// AdmissionGate is the bounded inflight-query semaphore.
	AdmissionGate = frontend.AdmissionGate
	// Coalescer folds concurrent discoveries into shared batch fan-outs.
	Coalescer = frontend.Coalescer
	// SubscriptionManager is the frontend-side standing-query index:
	// registered top-k subscriptions evaluated on every dynamic update
	// (attach with DynServing.AttachSubscriptions).
	SubscriptionManager = subs.Manager
	// SubscriptionEntry is one member of a standing top-k result.
	SubscriptionEntry = subs.Entry
	// SubscriptionNotification is one standing-result change event.
	SubscriptionNotification = subs.Notification
	// SubscriptionRegistration is the client → frontend standing-query
	// request carried by the subscription wire codec.
	SubscriptionRegistration = subs.Registration
	// SubscriptionFrame is one decoded subscription wire frame.
	SubscriptionFrame = subs.Frame
	// SubscriptionRef addresses one secure-index bucket in a standing
	// read set (shard, table, position).
	SubscriptionRef = subs.Ref
	// SubOracle is the plaintext subscription reference mirror used by
	// the oracle-differential churn suites (Frontend.NewSubOracle).
	SubOracle = frontend.SubOracle
	// MetricsRegistry is a named collection of observability metrics.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time metrics capture with Diff/Flatten.
	MetricsSnapshot = obs.Snapshot
	// QueryTrace is one discovery's per-stage latency breakdown.
	QueryTrace = obs.Trace
)

// Constructors re-exported with the package's vocabulary.
var (
	// NewCloud returns an empty in-process cloud server.
	NewCloud = cloud.New
	// NewFrontend creates a service front end (generates keys, shares
	// LSH parameters).
	NewFrontend = frontend.New
	// NewCloudServer wraps a Cloud for TCP serving.
	NewCloudServer = transport.NewServer
	// DialCloud connects to a remote cloud server.
	DialCloud = transport.Dial
	// NewSocialGraph returns an empty friendship graph.
	NewSocialGraph = fof.NewGraph
	// NewSharingAuthority creates a per-user sharing authority.
	NewSharingAuthority = sharing.NewAuthority
	// RenderTopicImage procedurally renders one image of a topic class.
	RenderTopicImage = imaging.Render
	// AllTopics lists the procedural topic classes.
	AllTopics = imaging.AllTopics
	// DefaultFrontendConfig is the paper's default operating point
	// (l=10 tables, d=4 probes, τ=0.8) for the given profile dimension.
	DefaultFrontendConfig = frontend.DefaultConfig
	// FrontendConfigForPopulation is DefaultFrontendConfig with the LSH
	// atom count scaled to the expected population (k ≈ log n), keeping
	// the cuckoo placement below saturation at large n. Build and attach
	// must derive their config from the same population size.
	FrontendConfigForPopulation = frontend.ConfigForPopulation
	// DefaultGroupOptions is the standard group-discovery configuration.
	DefaultGroupOptions = groups.DefaultOptions
	// NewShardPool assembles a fan-out pool over shard nodes.
	NewShardPool = shard.NewPool
	// NewLocalShard wraps an in-process Cloud as a shard node.
	NewLocalShard = shard.NewLocal
	// NewRemoteShard points a shard node at a TCP cloud server.
	NewRemoteShard = shard.NewRemote
	// DefaultShardPoolConfig is the standard fan-out configuration
	// (5 s per-shard deadline, one retry).
	DefaultShardPoolConfig = shard.DefaultConfig
	// DefaultShardOwner is the id-mod-S shard ownership function.
	DefaultShardOwner = core.DefaultOwner
	// NewReplicaGroup assembles one partition's replica group.
	NewReplicaGroup = shard.NewReplicaGroup
	// NewHealthProber assembles the fleet's membership/health prober.
	NewHealthProber = shard.NewProber
	// NewReplicaRepairer assembles the fleet's anti-entropy repairer.
	NewReplicaRepairer = shard.NewRepairer
	// NewReplicaRepair builds the front-end repair closure the repairer
	// drives (re-masking resync from a healthy sibling).
	NewReplicaRepair = frontend.NewReplicaRepair
	// NewReplicaMigration builds the front-end closures a Rebalancer
	// drives to migrate state onto a newly joined replica.
	NewReplicaMigration = frontend.NewReplicaMigration
	// OpenSegmentStore opens a segment directory written by a
	// SegmentBuilder (or pisd-segbuild) for serving.
	OpenSegmentStore = segstore.Open
	// NewSegmentCompactor assembles a compactor over a segment store and
	// a key-holder-side rewriter.
	NewSegmentCompactor = segstore.NewCompactor
	// ErrCorruptState reports a damaged persisted file — a segment or any
	// cloud state file — on load.
	ErrCorruptState = segstore.ErrCorruptState
	// Metrics is the process-wide observability registry every tier
	// records into by default.
	Metrics = obs.Default
	// ServeMetrics starts the observability HTTP endpoint (/metrics JSON
	// snapshot + /debug/pprof/*) for a registry and returns the bound
	// address.
	ServeMetrics = obs.Serve
	// MetricsHandler builds the observability http.Handler without
	// binding a listener.
	MetricsHandler = obs.Handler
	// DefaultServingConfig is the standard serving-path operating point
	// (16-query flushes, 200µs window, 256 inflight, 4096-entry cache).
	DefaultServingConfig = frontend.DefaultServingConfig
	// NewCoalescer builds an adaptive batch coalescer over a fan-out.
	NewCoalescer = frontend.NewCoalescer
	// NewAdmissionGate builds a bounded inflight-query gate.
	NewAdmissionGate = frontend.NewAdmissionGate
	// NewResultCache builds a bounded search-pattern result cache.
	NewResultCache = frontend.NewResultCache
	// ErrOverloaded is the admission gate's typed fast rejection.
	ErrOverloaded = frontend.ErrOverloaded
	// NewSubscriptionManager builds a standing-query index delivering
	// change events to the given emit callback.
	NewSubscriptionManager = subs.NewManager
	// EncodeSubscriptionRegistration encodes one registration frame of
	// the subscription wire codec.
	EncodeSubscriptionRegistration = subs.EncodeRegistration
	// EncodeSubscriptionNotification encodes one notification frame of
	// the subscription wire codec.
	EncodeSubscriptionNotification = subs.EncodeNotification
	// DecodeSubscriptionFrame decodes the first subscription frame in a
	// byte stream, returning the frame and its consumed length. Errors
	// are typed (ErrSubscriptionTruncated, ErrSubscriptionChecksum, ...).
	DecodeSubscriptionFrame = subs.Decode
	// ErrSubscriptionTruncated reports a subscription frame cut short.
	ErrSubscriptionTruncated = subs.ErrTruncated
	// ErrSubscriptionChecksum reports a corrupted subscription frame.
	ErrSubscriptionChecksum = subs.ErrChecksum
	// ErrSubscriptionBadPayload reports a well-framed but invalid
	// subscription payload.
	ErrSubscriptionBadPayload = subs.ErrBadPayload
)

// Batch update operations (Sec. III-D batch-update extension).
const (
	// OpDelete removes an identifier from the dynamic index.
	OpDelete = core.OpDelete
	// OpInsert adds an identifier to the dynamic index.
	OpInsert = core.OpInsert
)

// GenKeys implements K ← Gen(1^λ) for l hash tables.
func GenKeys(l int) (*KeySet, error) { return crypt.Gen(l) }

// TrainVocabulary trains the shared visual-word vocabulary Δ by k-means
// over a sample of SURF descriptors (the paper trains a 1000-word
// vocabulary on 10% of its corpus).
func TrainVocabulary(samples []Descriptor, words int) (*Vocabulary, error) {
	return bow.Train(samples, bow.DefaultTrainConfig(words))
}

// User is a user client Usr: it performs the two client-side tasks of the
// paper (GenProf and ComputeLSH) plus image encryption for upload.
type User struct {
	// ID is the user identifier L.
	ID uint64
	// vocab is the pre-shared vocabulary Δ.
	vocab *bow.Vocabulary
	// family is the pre-shared LSH family h.
	family *lsh.Family
	// surfOpts tunes local feature extraction.
	surfOpts surf.Options
}

// NewUser creates a user client from the parameters the front end
// pre-shares (Δ and h).
func NewUser(id uint64, vocab *Vocabulary, lshParams LSHParams) (*User, error) {
	if vocab == nil || vocab.Size() == 0 {
		return nil, fmt.Errorf("pisd: user %d: empty vocabulary", id)
	}
	if lshParams.Dim != vocab.Size() {
		return nil, fmt.Errorf("pisd: user %d: LSH dim %d does not match vocabulary size %d",
			id, lshParams.Dim, vocab.Size())
	}
	family, err := lsh.New(lshParams)
	if err != nil {
		return nil, fmt.Errorf("pisd: user %d: %w", id, err)
	}
	return &User{ID: id, vocab: vocab, family: family, surfOpts: surf.DefaultOptions()}, nil
}

// GenProf implements S ← GenProf({Img}, Δ): SURF extraction on every
// preferred image, BoW quantization against Δ, aggregation and
// normalization into the image profile S.
func (u *User) GenProf(images []*Image) ([]float64, error) {
	if len(images) == 0 {
		return nil, fmt.Errorf("pisd: user %d: no preferred images", u.ID)
	}
	perImage := make([][]surf.Descriptor, 0, len(images))
	for i, im := range images {
		descs, err := surf.Extract(im, u.surfOpts)
		if err != nil {
			return nil, fmt.Errorf("pisd: user %d image %d: %w", u.ID, i, err)
		}
		perImage = append(perImage, descs)
	}
	return u.vocab.Profile(perImage)
}

// ComputeLSH implements V ← ComputeLSH(S, h).
func (u *User) ComputeLSH(profile []float64) Metadata {
	return u.family.Hash(profile)
}

// Upload bundles GenProf and ComputeLSH into the (S, V) pair sent to the
// front end.
func (u *User) Upload(images []*Image) (Upload, error) {
	profile, err := u.GenProf(images)
	if err != nil {
		return Upload{}, err
	}
	return Upload{ID: u.ID, Profile: profile, Meta: u.ComputeLSH(profile)}, nil
}
