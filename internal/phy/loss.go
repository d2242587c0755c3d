package phy

import "math"

// The loss decision in the log₂ domain (DESIGN.md §13.2). The SNR/size loss
// model is a logistic per-block success curve centred on the rate's
// required SNR, raised to the frame's block count (longer frames face more
// chances to be hit): a candidate that reaches it keeps the frame with
// probability
//
//	p = σ(y)^blocks,   y = 1.2·margin,   blocks = size/256 + 1,
//
// σ the logistic, which the reference evaluates as Bool(Pow(1/(1+Exp(−y)),
// blocks)). In the log₂ domain log₂p = blocks·s(y) with s = log₂σ, and on a
// spatial medium
//
//	y = 1.2·K − 6n·log10(2)·log₂(d²),   K = P_tx − L₀ − rej − N − requiredSNR,
//
// so the squared distance the floor and the capture test already hold
// suffices. lossDraw encloses log₂p from an enclosure [ylo, yhi] of y, draws
// u exactly where Bool would, encloses log₂u, and decides whenever log₂u
// clears log₂p's enclosure by lossGuard. Only a draw inside that band, or a
// frame for which it cannot tell whether Bool draws, pays for the exact
// SNR, the Exp and the Pow.
//
// Exactness: each enclosure holds in real arithmetic. Where the enclosure
// decides, the reference's y carries an absolute rounding error under
// 1e-12, its Exp, division and Pow a relative one of a few ulps, and the
// enclosures' own evaluation errs as little. With s' ≤ log₂e and at most
// lossMaxBlocks blocks, that moves log₂p by under 1e-10, a tenth of
// lossGuard, so every decided draw falls on the side of p that the
// reference's u < Pow(pBit, blocks) puts it.

// lossGuard is the margin, in log₂ units, by which log₂u must clear the
// enclosure of log₂p for the enclosure to decide a draw.
const lossGuard = 1e-9

// lossMaxBlocks caps the block count the enclosure decides (frames up to
// 16 KB), which keeps blocks times y's rounding error far inside lossGuard.
const lossMaxBlocks = 64

// lossMinLog2 is the floor under log₂p's lower bound for a draw: above it
// p is a normal float, so Pow keeps full precision and Bool draws.
const lossMinLog2 = -1000

// belowOneY and roundsToOneY bracket where the reference's pBit becomes
// exactly 1. Below belowOneY, e^−y > 1.03·2^−53, so 1 + Exp(−y) rounds up to
// at least 1 + 2^−52, pBit ≤ 1 − 2^−52 and Pow(pBit, blocks) < 1: Bool
// draws (TestPowBelowOne pins the last step where pBit is within 2^−45 of
// 1; further out it would take a Pow error of 256 ulps). Above
// roundsToOneY, e^−y < 5.3e-17 < 2^−54, so 1 + Exp(−y) rounds to 1,
// Pow(1, blocks) is 1 and Bool keeps the frame without drawing.
const (
	belowOneY    = 36.7
	roundsToOneY = 37.5
)

// yPerLog2D2 is how far y falls per unit of log₂(d²), per unit of the
// path-loss exponent: 1.2·5·log10(2).
const yPerLog2D2 = 6 * math.Ln2 / math.Ln10

// The two tables sample concave, increasing functions, so the chord between
// neighbouring entries is a lower bound and lies within h²/8 times the
// largest second derivative of the function on a cell of width h.
const (
	// mantCells cells of log₂(1+x) on x ∈ [0, 1], indexed by the top
	// mantissa bits: the second derivative is at most 1/ln 2 in size.
	mantCells = 1 << 6
	mantShift = 52 - 6
	mantGap   = 1 / (8 * math.Ln2 * mantCells * mantCells)
	// sigmaCells cells of s on [sigmaMin, sigmaMin + sigmaCells/sigmaPerY)
	// = [−40, 24): its second derivative −σ(1−σ)/ln 2 is at most
	// 1/(4 ln 2) in size. Below the table s(y) = y·log₂e − log₂(1+e^y),
	// with log₂(1+e^y) < 1e-17; above it s lies in [s(24), 0), with
	// s(24) ≈ −5e-11.
	sigmaMin   = -40
	sigmaPerY  = 4
	sigmaCells = 256
	sigmaGap   = 1 / (32 * math.Ln2 * sigmaPerY * sigmaPerY)
)

// lossPath names how one loss decision was made.
type lossPath int

const (
	lossSettled lossPath = iota // a draw the enclosure decided
	lossCertain                 // pBit rounds to 1: kept, nothing drawn
	lossBand                    // a draw in the guard band: Exp and Pow decide it
	lossRef                     // p not provably in (0, 1): Bool(Pow), as the reference
	numLossPaths
)

// frameSurvives applies the loss model to a frame of size bytes received at
// snr, through the zero-width enclosure y = 1.2·margin. Shadowed mediums
// and the flat test medium take this path: their rssi comes first. The
// outcome and the draws are those of Bool(Pow(pBit, blocks)).
func (m *Medium) frameSurvives(snr float64, size int, rate Rate) bool {
	y := (snr - rate.requiredSNR()) * 1.2
	blocks := float64(size)/256 + 1
	ok, path, u := m.lossDraw(y, y, blocks)
	if path >= lossBand {
		ok = m.lossExact(path, u, snr, blocks, rate)
	}
	return ok
}

// survivesAt applies the loss model to tx's frame at rx on a spatial
// medium, enclosing y from rx's clamped squared distance d2 and rej dB of
// channel rejection. It computes rssi (a Hypot and a Log10) only for a frame
// that survives or a decision that needs the exact SNR, and returns it.
func (m *Medium) survivesAt(tx *transmission, rx *Radio, rej, d2 float64) (rssi float64, ok bool) {
	k := 1.2 * (tx.powerDBm - referenceLossDB - rej - noiseFloorDBm - tx.rate.requiredSNR())
	slope := yPerLog2D2 * m.cfg.PathLossExponent
	alo, ahi := log2Bounds(d2)
	blocks := float64(len(tx.data))/256 + 1
	ok, path, u := m.lossDraw(k-slope*ahi, k-slope*alo, blocks)
	if !ok && path < lossBand {
		return 0, false
	}
	rssi = m.rssiAt(tx, rx, rej)
	if path >= lossBand {
		ok = m.lossExact(path, u, rssi-noiseFloorDBm, blocks, tx.rate)
	}
	return rssi, ok
}

// lossDraw makes the loss decision for a frame of the given block count
// whose y lies in [ylo, yhi], drawing from the medium's RNG exactly when, and
// exactly what, Bool(Pow(pBit, blocks)) would. ok is the outcome for
// lossSettled and lossCertain; for lossBand, u is the draw already taken,
// and lossBand and lossRef leave the outcome to lossExact.
func (m *Medium) lossDraw(ylo, yhi, blocks float64) (ok bool, path lossPath, u float64) {
	path = lossRef
	if ylo > roundsToOneY {
		path, ok = lossCertain, true
	} else if lo, hi, draws := log2PBounds(ylo, yhi, blocks); draws {
		u = m.rng.Float64()
		ok, path = settleDraw(u, lo, hi)
	}
	m.lossMix[path]++
	return ok, path, u
}

// log2PBounds encloses log₂p = blocks·s(y) for y in [ylo, yhi]. draws
// reports that 0 < p < 1 with p a normal float, so Bool would draw: it is
// false from belowOneY up, above lossMaxBlocks, under lossMinLog2 and for
// NaN inputs, which fail every comparison.
func log2PBounds(ylo, yhi, blocks float64) (lo, hi float64, draws bool) {
	if !(yhi < belowOneY && blocks <= lossMaxBlocks) {
		return 0, 0, false
	}
	lo, hi = blocks*log2SigmaLo(ylo), blocks*log2SigmaHi(yhi)
	return lo, hi, lo > lossMinLog2
}

// settleDraw decides the draw u against the enclosure [lo, hi] of log₂p:
// kept when log₂u is under lo by more than lossGuard (or u is 0), lost when
// it is over hi by more, and otherwise left to lossExact as lossBand.
func settleDraw(u, lo, hi float64) (ok bool, path lossPath) {
	if u == 0 {
		return true, lossSettled
	}
	ulo, uhi := log2Bounds(u)
	switch {
	case uhi < lo-lossGuard:
		return true, lossSettled
	case ulo > hi+lossGuard:
		return false, lossSettled
	}
	return false, lossBand
}

// lossExact finishes a decision lossDraw left open, from the exact snr: it
// compares the draw already taken as Bool would (lossBand), or is the
// reference's Bool(Pow(pBit, blocks)) itself (lossRef).
func (m *Medium) lossExact(path lossPath, u, snr, blocks float64, rate Rate) bool {
	margin := snr - rate.requiredSNR()
	pFrame := math.Pow(1/(1+math.Exp(-margin*1.2)), blocks)
	if path == lossBand {
		return u < pFrame
	}
	return m.rng.Bool(pFrame)
}

// log2Bounds encloses log₂x for a positive, finite, normal x: its exponent
// plus the mantissa table's chord, which is at most mantGap under log₂x.
func log2Bounds(x float64) (lo, hi float64) {
	b := math.Float64bits(x)
	j := b >> mantShift & (mantCells - 1)
	f := float64(b&(1<<mantShift-1)) * (1.0 / (1 << mantShift))
	t0 := log2MantTab[j]
	lo = float64(int(b>>52)-1023) + (t0 + f*(log2MantTab[j+1]-t0))
	return lo, lo + mantGap
}

// log2SigmaLo is a lower bound on s(y) = log₂σ(y): y·log₂e − 1e-15 below
// the table, the table's chord (s is concave) on it, and its top entry
// above it (s increases).
func log2SigmaLo(y float64) float64 {
	t := (y - sigmaMin) * sigmaPerY
	switch {
	case t < 0:
		return y*math.Log2E - 1e-15
	case t >= sigmaCells:
		return log2SigmaTab[sigmaCells]
	}
	i := int(t)
	s0 := log2SigmaTab[i]
	return s0 + (t-float64(i))*(log2SigmaTab[i+1]-s0)
}

// log2SigmaHi is an upper bound on s(y): y·log₂e below the table; on it the
// chord plus sigmaGap, or the cell's upper entry (s increases) where that
// is tighter, as it is once s is within sigmaGap of 0; and 0 above it.
func log2SigmaHi(y float64) float64 {
	t := (y - sigmaMin) * sigmaPerY
	switch {
	case t < 0:
		return y * math.Log2E
	case t >= sigmaCells:
		return 0
	}
	i := int(t)
	s0, s1 := log2SigmaTab[i], log2SigmaTab[i+1]
	return min(s0+(t-float64(i))*(s1-s0)+sigmaGap, s1)
}

// log2MantTab[j] = log₂(1 + j/mantCells): log2Bounds's table.
var log2MantTab = [mantCells + 1]float64{
	0, 0.022367813028454475, 0.0443941193584535, 0.0660891904577725,
	0.08746284125033943, 0.10852445677816913, 0.12928301694496647, 0.149747119504682,
	0.16992500144231248, 0.18982455888001726, 0.2094533656289499, 0.22881869049588077,
	0.24792751344358555, 0.2667865406949014, 0.28540221886224837, 0.303780748177103,
	0.3219280948873623, 0.33985000288462475, 0.3575520046180837, 0.37503943134692475,
	0.39231742277876036, 0.4093909361377017, 0.4262647547020979, 0.4429434958487283,
	0.4594316186372973, 0.47573343096639775, 0.4918530963296748, 0.5077946401986962,
	0.5235619560570128, 0.5391588111080314, 0.5545888516776374, 0.5698556083309478,
	0.5849625007211563, 0.5999128421871276, 0.6147098441152082, 0.6293566200796097,
	0.6438561897747247, 0.6582114827517948, 0.6724253419714956, 0.6865005271832184,
	0.7004397181410922, 0.7142455176661227, 0.7279204545631992, 0.7414669864011469,
	0.7548875021634686, 0.7681843247769263, 0.7813597135246596, 0.794415866350106,
	0.8073549220576042, 0.8201789624151877, 0.8328900141647417, 0.8454900509443752,
	0.8579809951275721, 0.8703647195834046, 0.8826430493618412, 0.8948177633079435,
	0.9068905956085185, 0.9188632372745945, 0.9307373375628862, 0.9425145053392399,
	0.9541963103868752, 0.965784284662087, 0.9772799234999164, 0.9886846867721658,
	1,
}

// log2SigmaTab[i] = s(sigmaMin + i/sigmaPerY), with s(y) = log₂σ(y) =
// −log1p(e^−y)/ln 2: the table of log2SigmaLo and log2SigmaHi.
var log2SigmaTab = [sigmaCells + 1]float64{
	-57.70780163555854, -57.3471278753363, -56.98645411511406, -56.625780354891816,
	-56.265106594669575, -55.904432834447334, -55.54375907422509, -55.18308531400285,
	-54.82241155378061, -54.46173779355837, -54.10106403333613, -53.74039027311389,
	-53.37971651289165, -53.01904275266941, -52.658368992447166, -52.297695232224925,
	-51.937021472002684, -51.57634771178044, -51.2156739515582, -50.85500019133596,
	-50.49432643111372, -50.13365267089148, -49.77297891066924, -49.412305150447,
	-49.051631390224756, -48.690957630002515, -48.330283869780274, -47.96961010955805,
	-47.608936349335806, -47.248262589113565, -46.887588828891325, -46.526915068669084,
	-46.16624130844685, -45.805567548224616, -45.44489378800238, -45.08422002778015,
	-44.72354626755792, -44.36287250733569, -44.00219874711347, -43.641524986891255,
	-43.280851226669036, -42.92017746644684, -42.55950370622464, -42.19882994600247,
	-41.838156185780306, -41.47748242555817, -41.116808665336066, -40.756134905113996,
	-40.395461144891975, -40.03478738467002, -39.67411362444814, -39.31343986422637,
	-38.95276610400472, -38.59209234378325, -38.231418583562004, -37.870744823341035,
	-37.51007106312042, -37.149397302900276, -36.78872354268072, -36.428049782461926,
	-36.06737602224412, -35.70670226202757, -35.34602850181264, -34.985354741599785,
	-34.62468098138959, -34.264007221182815, -33.903333460980434, -33.542659700783695,
	-33.18198594059421, -32.82131218041402, -32.46063842024577, -32.09996466009286,
	-31.739290899959634, -31.37861713985169, -31.017943379776217, -30.657269619742433,
	-30.296595859762164, -29.93592209985063, -29.57524834002734, -29.214574580317368,
	-28.853900820752884, -28.493227061375226, -28.13255330223745, -27.77187954340769,
	-27.411205784973433, -27.050532027047, -26.689858269772646, -26.32918451333556,
	-25.968510757973558, -25.607837003991985, -25.24716325178292, -24.886489501849802,
	-24.52581575483905, -24.165142011580706, -23.804468273140536, -23.443794540887026,
	-23.083120816577345, -22.722447102467743, -22.3617734014553, -22.00109971725994,
	-21.640426054658146, -21.279752419783026, -20.91907882050966, -20.558405266949837,
	-20.197731772087348, -19.837058352593704, -19.476385029875527, -19.115711831419425,
	-18.755038792518864, -18.39436595849147, -18.03369338752608, -17.673021154338418,
	-17.31234935486502, -16.951678112290228, -16.591007584784855, -16.230337975442616,
	-15.869669545038287, -15.509002628408838, -15.148337655486081, -14.787675178301237,
	-14.427015905656397, -14.066360747638432, -13.70571087276757, -13.345067781363728,
	-12.98443339972782, -12.62381020103523, -12.263201360503851, -11.90261095453121,
	-11.542044216222568, -11.18150786321688, -10.82101051816468, -10.460563247876152,
	-10.100180254355541, -9.739879760056233, -9.379685141195617, -9.019626377407642,
	-8.659741904004786, -8.300080975333145, -7.940706674770298, -7.581699739305592,
	-7.223163404407909, -6.865229517226086, -6.508066210706408, -6.151887472855021,
	-5.79696497455537, -5.443642519506872, -5.092353424017654, -4.743640981171709,
	-4.398181853832257, -4.0568116957954095, -3.720551430663318, -3.3906313476139065,
	-3.068508493859523, -2.7558709088233617, -2.454620498648352, -2.1668256374238863,
	-1.8946361239720115, -1.6401581626524124, -1.4052960345207173, -1.191578705133915,
	-1, -0.8309049449116741, -0.6839485140762355, -0.55813688198569,
	-0.4519410830830482, -0.3634568363126818, -0.29057793731490716, -0.23115458726767565,
	-0.18311841208159602, -0.14456750561373893, -0.11381382844090934, -0.08940033335076013,
	-0.07009673116536624, -0.054882098282578534, -0.04292078090628209, -0.03353611617325867,
	-0.026184810999516257, -0.020433549076926644, -0.015938526706072893, -0.012428073003509179,
	-0.00968819996309183, -0.007550774638533493, -0.005883949880999343, -0.004584490221604686,
	-0.00357165867100623, -0.002782371851619457, -0.002167375417354612, -0.0016882340557300393,
	-0.0013149681327967525, -0.0010242014311676352, -0.0007977114974544391, -0.000621296327413361,
	-0.0004838891108592801, -0.00037686719726213704, -0.0002935129476615513, -0.0002285932568002889,
	-0.00017803172714858453, -0.0001386531408161343, -0.00010798432241879978, -8.409897103801098e-05,
	-6.549676676198847e-05, -5.100918936169969e-05, -3.972615196449481e-05, -3.09388524812057e-05,
	-2.4095259689149903e-05, -1.8765441777311176e-05, -1.4614561775171193e-05, -1.1381844906687174e-05,
	-8.864197460587432e-06, -6.903448614803206e-06, -5.376414032462042e-06, -4.187157184397832e-06,
	-3.26096234080391e-06, -2.539640659472002e-06, -1.9778745193957704e-06, -1.5403704580847299e-06,
	-1.1996418606392085e-06, -9.342821063938856e-07, -7.276196881840033e-07, -5.666708145451292e-07,
	-4.413236932834429e-07, -3.43703249545508e-07, -2.6767636694320864e-07, -2.0846656846292884e-07,
	-1.6235392935778445e-07, -1.2644136889229502e-07, -9.847263806045701e-08, -7.669056821153497e-08,
	-5.972667492848173e-08, -4.6515181417534414e-08, -3.622605984186414e-08, -2.8212883850786923e-08,
	-2.1972216083218068e-08, -1.7111979120248276e-08, -1.332682275623348e-08, -1.0378940009012185e-08,
	-8.08312661290131e-09, -6.295145339693748e-09, -4.902664122467808e-09, -3.81819865914907e-09,
	-2.9736161065378907e-09, -2.31585455285338e-09, -1.8035893395618953e-09, -1.404636790184256e-09,
	-1.0939322322442001e-09, -8.519552791702803e-10, -6.635034386029667e-10, -5.167369975808442e-10,
	-4.024351783738702e-10, -3.1341683206271996e-10, -2.4408927424407005e-10, -1.900969179241698e-10,
	-1.4804762854096156e-10, -1.1529960904087393e-10, -8.979542580965318e-11, -6.993274793726954e-11,
	-5.4463678856172675e-11,
}
