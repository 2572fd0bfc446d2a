/* Compiled numerical kernels: the C twin of `abmodes._kernels_py`.
 *
 * Bessel J, and the G10/K21 and Filon-Legendre (Hankel) panels of
 * J_nu(p r) J_mu(pp r) r; the Python twin's docstring describes the
 * algorithms; Gamma is Python's math.gamma in both.
 *
 * Each function below mirrors the Python function of the same name (j_at
 * mirrors `_j`, bisect_left Python's `bisect.bisect_left`), one arithmetic
 * operation for one, so both return the same doubles; the tests in
 * `tests/test_backends.py` compare them with ==.  Edit the two together.
 * The Python twin's lists of Hankel terms are fixed arrays here, of
 * HANKEL_TERMS entries, with a count of those filled.  Its expansion for
 * several arguments also tabulates the series' divisors k (nu + k); series
 * here computes each inline, the same product of the same doubles, which
 * costs nothing in C, and `tests/test_backends.py` checks the results
 * with ==.
 * `setup.py` compiles this file with -ffp-contract=off, because a fused
 * multiply-add would round once where Python rounds twice.
 *
 * Domain policing (x < 0, poles, order caps) is the caller's job, as in the
 * Python twin: `specfun` validates before calling in.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

static const double PI = 3.141592653589793;

/* math.gamma, set by exec_module: libm's tgamma returns other doubles. */
static PyObject *math_gamma;

/* Gauss-Legendre nodes and weights on [-1, 1], order 15. */
static const double G15_NODE[15] = {
    -0.9879925180204854, -0.937273392400706, -0.8482065834104272,
    -0.7244177313601701, -0.5709721726085388, -0.3941513470775634,
    -0.20119409399743451, 0.0, 0.20119409399743451,
    0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
    0.8482065834104272, 0.937273392400706, 0.9879925180204854,
};
static const double G15_WEIGHT[15] = {
    0.030753241996118647, 0.07036604748810807, 0.10715922046717177,
    0.1395706779261539, 0.16626920581699378, 0.18616100001556188,
    0.19843148532711125, 0.2025782419255609, 0.19843148532711125,
    0.18616100001556188, 0.16626920581699378, 0.1395706779261539,
    0.10715922046717177, 0.07036604748810807, 0.030753241996118647,
};

/* Gauss-Kronrod pair on [-1, 1]: the K21 weight of the center node, then
 * node x, K21 weight and G10 weight for the ten symmetric pairs +-x,
 * innermost first.  The G10 weight is 0.0 at the Kronrod-only nodes. */
static const double K21_CENTER = 0.1494455540029169;
static const double GK21_NODE[10] = {
    0.14887433898163122, 0.2943928627014602, 0.4333953941292472,
    0.5627571346686047, 0.6794095682990244, 0.7808177265864169,
    0.8650633666889845, 0.9301574913557082, 0.9739065285171717,
    0.9956571630258081,
};
static const double K21_WEIGHT[10] = {
    0.14773910490133849, 0.14277593857706009, 0.13470921731147334,
    0.12349197626206584, 0.10938715880229764, 0.0931254545836976,
    0.07503967481091996, 0.054755896574351995, 0.032558162307964725,
    0.011694638867371874,
};
static const double G10_WEIGHT[10] = {
    0.29552422471475287, 0.0, 0.26926671930999635, 0.0, 0.21908636251598204,
    0.0, 0.1494513491505806, 0.0, 0.06667134430868814, 0.0,
};

/* Gauss-Legendre nodes on [-1, 1], order 16: node x and weight for the
 * eight symmetric pairs +-x, innermost first. */
static const double GL16_NODE[8] = {
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
    0.6178762444026438, 0.755404408355003, 0.8656312023878318,
    0.9445750230732326, 0.9894009349916499,
};
static const double GL16_WEIGHT[8] = {
    0.1894506104550685, 0.18260341504492358, 0.16915651939500254,
    0.14959598881657674, 0.12462897125553388, 0.09515851168249279,
    0.062253523938647894, 0.027152459411754096,
};

/* J_nu(x) is summed from the ascending series for x <= HANKEL_FROM and from
 * Hankel's expansion above: the Python twin's _HANKEL_FROM. */
#define HANKEL_FROM 12.0

/* Miller's backward recurrence for j_k starts here, as in the Python twin. */
#define MILLER_START 40

/* Hankel's expansion of one order: coef[0..n] are the signed coefficients
 * c_k of P and Q, growth[k-1] and small[k-1] the running bounds of term k
 * that hankel_pq bisects, as in the Python twin's _hankel_coefficients. */
#define HANKEL_TERMS 59
typedef struct {
    int n;
    double coef[HANKEL_TERMS + 1];
    double growth[HANKEL_TERMS];
    double small[HANKEL_TERMS];
} hankel_t;

/* J_nu's expansion for arguments in [x_lo, x_hi], the Python twin's
 * _expansion: the series' Gamma(nu + 1), and Hankel's coefficients with the
 * cos and sin of the phase (nu/2 + 1/4) pi. */
typedef struct {
    double sign, nu, g, cos_phase, sin_phase;
    hankel_t hankel;
} expansion_t;

static double series(double nu, double x, double g)
{
    double h = 0.5 * x;
    if (h == 0.0 && nu < 0.0)
        return NAN;
    double t = pow(h, nu) / g;
    double s = t;
    double q = -h * h;
    double biggest = fabs(t);
    for (int k = 1; k < 400; k++) {
        t *= q / (k * (nu + k));
        s += t;
        double a = fabs(t);
        if (a > biggest)
            biggest = a;
        else if (a <= 1e-18 * biggest)
            break;
    }
    return s;
}

static void hankel_coefficients(double nu, double x_lo, double x_hi, hankel_t *hk)
{
    double mu = 4.0 * nu * nu;
    double c = 1.0, top = 0.0, least = INFINITY, reach = 2.0;
    hk->n = 0;
    hk->coef[0] = 1.0;
    for (int k = 1; k <= HANKEL_TERMS; k++) {
        /* (2k - 1)^2 and 8k, negated for even k, as in _HANKEL_STEPS */
        double m2 = (double)((2 * k - 1) * (2 * k - 1));
        double d = (k & 1) ? 8.0 * k : -8.0 * k;
        double ratio = (mu - m2) / d;
        if (k > 2) {
            double r = fabs(ratio);
            if (r >= x_hi)
                break;
            if (r > top)
                top = r;
        }
        c *= ratio;
        double a = fabs(c) * 1e18;
        /* the root only where it may reach x_hi, as in the Python twin */
        reach *= x_hi;
        if (a <= reach) {
            double bound = pow(a, 1.0 / k);
            if (bound < least)
                least = bound;
        }
        hk->coef[k] = c;
        hk->growth[k - 1] = top;
        hk->small[k - 1] = -least;
        hk->n = k;
        if (least <= x_lo)
            break;
    }
}

/* Python's bisect.bisect_left: the first i with a[i] >= x, n if none. */
static int bisect_left(const double *a, int n, double x)
{
    int lo = 0, hi = n;
    while (lo < hi) {
        int mid = (lo + hi) / 2;
        if (a[mid] < x)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

static void hankel_pq(const hankel_t *hk, double x, double *p_out, double *q_out)
{
    int cut = bisect_left(hk->growth, hk->n, x);
    int stop = bisect_left(hk->small, hk->n, -x) + 1;
    if (stop < cut)
        cut = stop;
    double xi = 1.0 / x;
    double y = xi * xi;
    double p = 0.0, q = 0.0;
    /* Horner over the even and the odd coefficients up to the cut */
    for (int i = cut - (cut & 1); i >= 0; i -= 2)
        p = p * y + hk->coef[i];
    for (int i = cut - 1 + (cut & 1); i >= 1; i -= 2)
        q = q * y + hk->coef[i];
    *p_out = p;
    *q_out = q * xi;
}

/* cos and sin of x - phase by the angle difference, as in the Python twin */
static void cos_sin_minus(double x, double cos_phase, double sin_phase, double *c, double *s)
{
    double cos_x = cos(x), sin_x = sin(x);
    *c = cos_x * cos_phase + sin_x * sin_phase;
    *s = sin_x * cos_phase - cos_x * sin_phase;
}

static double asymptotic(const expansion_t *e, double x)
{
    double p, q, cos_chi, sin_chi;
    hankel_pq(&e->hankel, x, &p, &q);
    cos_sin_minus(x, e->cos_phase, e->sin_phase, &cos_chi, &sin_chi);
    return sqrt(2.0 / (PI * x)) * (cos_chi * p - sin_chi * q);
}

/* 0, or -1 with the exception that math.gamma raised set. */
static int expansion(double nu, double x_lo, double x_hi, expansion_t *e)
{
    e->sign = 1.0;
    if (nu < 0.0 && nu == floor(nu)) {
        e->sign = ((long)(-nu) & 1) == 0 ? 1.0 : -1.0;
        nu = -nu;
    }
    e->nu = nu;
    e->g = 0.0;
    e->cos_phase = e->sin_phase = 0.0;
    e->hankel.n = 0;
    e->hankel.coef[0] = 1.0;
    if (!(x_lo > HANKEL_FROM)) {
        PyObject *arg = PyFloat_FromDouble(nu + 1.0);
        PyObject *g = arg == NULL ? NULL : PyObject_CallOneArg(math_gamma, arg);
        Py_XDECREF(arg);
        if (g == NULL)
            return -1;
        e->g = PyFloat_AsDouble(g);
        Py_DECREF(g);
    }
    if (!(x_hi <= HANKEL_FROM)) {
        double phase = (0.5 * nu + 0.25) * PI;
        e->cos_phase = cos(phase);
        e->sin_phase = sin(phase);
        hankel_coefficients(nu, x_lo > HANKEL_FROM ? x_lo : HANKEL_FROM, x_hi, &e->hankel);
    }
    return 0;
}

static double j_at(const expansion_t *e, double x)
{
    if (x == 0.0)
        return e->sign * (e->nu == 0.0 ? 1.0 : 0.0);
    if (x <= HANKEL_FROM)
        return e->sign * series(e->nu, x, e->g);
    return e->sign * asymptotic(e, x);
}

/* J_nu(x) into *j: 0, or -1 as expansion. */
static int bessel_j_(double nu, double x, double *j)
{
    expansion_t e;
    if (expansion(nu, x, x, &e) < 0)
        return -1;
    *j = j_at(&e, x);
    return 0;
}

/* j_0(kappa), ..., j_15(kappa); the branches of the Python twin's spherical_j. */
static void spherical_j(double kappa, double *j)
{
    for (int k = 0; k < 16; k++)
        j[k] = 0.0;
    if (kappa < 1e-8) {
        double t = 1.0;
        for (int k = 0; k < 16; k++) {
            j[k] = t;
            t *= kappa / (2 * k + 3);
        }
        return;
    }
    double j0 = sin(kappa) / kappa;
    double j1 = (j0 - cos(kappa)) / kappa;
    if (kappa > 16.0) {
        j[0] = j0;
        j[1] = j1;
        for (int k = 1; k < 15; k++)
            j[k + 1] = (2 * k + 1) / kappa * j[k] - j[k - 1];
        return;
    }
    double above = 0.0, f = 1.0;
    for (int n = MILLER_START; n > 0; n--) {
        double below = (2 * n + 1) / kappa * f - above;
        above = f;
        f = below;
        if (n <= 16)
            j[n - 1] = f;
        if (fabs(f) > 1e250) {
            above *= 1e-250;
            f *= 1e-250;
            for (int i = n - 1; i < 16; i++)
                j[i] *= 1e-250;
        }
    }
    double scale = fabs(j0) >= fabs(j1) ? j0 / j[0] : j1 / j[1];
    for (int k = 0; k < 16; k++)
        j[k] *= scale;
}

static void filon_weights(double kappa, double *a)
{
    double j[16];
    spherical_j(kappa, j);
    for (int k = 0; k < 16; k++)
        a[k] = (k & 2) == 0 ? (2 * k + 1) * j[k] : -((2 * k + 1) * j[k]);
}

/* Reads the n positional arguments as doubles into out; 0 on success. */
static int doubles(const char *name, PyObject *const *args, Py_ssize_t nargs,
                   Py_ssize_t n, double *out)
{
    if (nargs != n) {
        PyErr_Format(PyExc_TypeError, "%s() takes exactly %zd arguments (%zd given)",
                     name, n, nargs);
        return -1;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        out[i] = PyFloat_AsDouble(args[i]);
        if (out[i] == -1.0 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* (J_nu(x) for x in xs) from one expansion over [min, max] of the n > 0 xs,
 * the ends as Python's min and max take them: an x replaces the running
 * end only where it compares beyond it. */
static PyObject *bessel_j_tuple_(double nu, const double *xs, Py_ssize_t n)
{
    double lo = xs[0], hi = xs[0];
    for (Py_ssize_t i = 1; i < n; i++) {
        if (xs[i] < lo)
            lo = xs[i];
        if (xs[i] > hi)
            hi = xs[i];
    }
    expansion_t e;
    if (expansion(nu, lo, hi, &e) < 0)
        return NULL;
    PyObject *out = PyTuple_New(n);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *j = PyFloat_FromDouble(j_at(&e, xs[i]));
        if (j == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, i, j);
    }
    return out;
}

static PyObject *py_bessel_j_tuple(PyObject *order, PyObject *xs_tuple)
{
    double nu = PyFloat_AsDouble(order);
    if (nu == -1.0 && PyErr_Occurred())
        return NULL;
    Py_ssize_t n = PyTuple_GET_SIZE(xs_tuple);
    if (n == 0) {
        PyErr_SetString(PyExc_ValueError, "bessel_j() arg is an empty tuple");
        return NULL;
    }
    double *xs = PyMem_New(double, n);
    if (xs == NULL)
        return PyErr_NoMemory();
    PyObject *out = NULL;
    Py_ssize_t i = 0;
    for (; i < n; i++) {
        xs[i] = PyFloat_AsDouble(PyTuple_GET_ITEM(xs_tuple, i));
        if (xs[i] == -1.0 && PyErr_Occurred())
            break;
    }
    if (i == n)
        out = bessel_j_tuple_(nu, xs, n);
    PyMem_Free(xs);
    return out;
}

static PyObject *py_bessel_j(PyObject *Py_UNUSED(module), PyObject *const *args,
                             Py_ssize_t nargs)
{
    if (nargs == 2 && PyTuple_Check(args[1]))
        return py_bessel_j_tuple(args[0], args[1]);
    double a[2];
    double j;
    if (doubles("bessel_j", args, nargs, 2, a) < 0 || bessel_j_(a[0], a[1], &j) < 0)
        return NULL;
    return PyFloat_FromDouble(j);
}

static PyObject *py_gauss15_product_panel(PyObject *Py_UNUSED(module),
                                          PyObject *const *args, Py_ssize_t nargs)
{
    double a[6];
    if (doubles("gauss15_product_panel", args, nargs, 6, a) < 0)
        return NULL;
    double nu = a[0], mu = a[1], p = a[2], pp = a[3], lo = a[4], hi = a[5];
    double c = 0.5 * (lo + hi);
    double h = 0.5 * (hi - lo);
    double s = 0.0;
    for (int i = 0; i < 15; i++) {
        double r = c + h * G15_NODE[i];
        double j_nu, j_mu;
        if (bessel_j_(nu, p * r, &j_nu) < 0 || bessel_j_(mu, pp * r, &j_mu) < 0)
            return NULL;
        s += G15_WEIGHT[i] * j_nu * j_mu * r;
    }
    return PyFloat_FromDouble(s * h);
}

static PyObject *py_kronrod21_product_panel(PyObject *Py_UNUSED(module),
                                            PyObject *const *args, Py_ssize_t nargs)
{
    double a[6];
    if (doubles("kronrod21_product_panel", args, nargs, 6, a) < 0)
        return NULL;
    double nu = a[0], mu = a[1], p = a[2], pp = a[3], lo = a[4], hi = a[5];
    double c = 0.5 * (lo + hi);
    double h = 0.5 * (hi - lo);
    double edge = fabs(h) * GK21_NODE[9];
    expansion_t j_nu, j_mu;
    if (expansion(nu, p * (c - edge), p * (c + edge), &j_nu) < 0
        || expansion(mu, pp * (c - edge), pp * (c + edge), &j_mu) < 0)
        return NULL;
    double k = K21_CENTER * (j_at(&j_nu, p * c) * j_at(&j_mu, pp * c) * c);
    double g = 0.0;
    for (int i = 0; i < 10; i++) {
        double r = c - h * GK21_NODE[i];
        double f = j_at(&j_nu, p * r) * j_at(&j_mu, pp * r) * r;
        r = c + h * GK21_NODE[i];
        f += j_at(&j_nu, p * r) * j_at(&j_mu, pp * r) * r;
        k += K21_WEIGHT[i] * f;
        g += G10_WEIGHT[i] * f;
    }
    return Py_BuildValue("(dd)", k * h, g * h);
}

static PyObject *py_hankel_product_panel(PyObject *Py_UNUSED(module),
                                         PyObject *const *args, Py_ssize_t nargs)
{
    double a[6];
    if (doubles("hankel_product_panel", args, nargs, 6, a) < 0)
        return NULL;
    double nu = a[0], mu = a[1], p = a[2], pp = a[3], lo = a[4], hi = a[5];
    double c = 0.5 * (lo + hi);
    double h = 0.5 * (hi - lo);
    double off_nu = (0.5 * nu + 0.25) * PI;
    double off_mu = (0.5 * mu + 0.25) * PI;
    double w_sum = p + pp;
    double w_dif = p - pp;
    double sign = 1.0;
    if (w_dif < 0.0) {
        w_dif = -w_dif;
        sign = -1.0;
    }
    double a_s[16], a_d[16];
    filon_weights(w_sum * h, a_s);
    filon_weights(w_dif * h, a_d);
    double edge = fabs(h) * GL16_NODE[7];
    hankel_t hk_nu, hk_mu;
    hankel_coefficients(nu, p * (c - edge), p * (c + edge), &hk_nu);
    hankel_coefficients(mu, pp * (c - edge), pp * (c + edge), &hk_mu);
    double cs_re = 0.0, cs_im = 0.0, ts_re = 0.0, ts_im = 0.0;
    double cd_re = 0.0, cd_im = 0.0, td_re = 0.0, td_im = 0.0;
    for (int i = 0; i < 8; i++) {
        double x = GL16_NODE[i], w = GL16_WEIGHT[i];
        double p1, q1, p2, q2;
        double r = c - h * x;
        hankel_pq(&hk_nu, p * r, &p1, &q1);
        hankel_pq(&hk_mu, pp * r, &p2, &q2);
        double s_re = p1 * p2 - q1 * q2;
        double s_im = p1 * q2 + q1 * p2;
        double d_re = p1 * p2 + q1 * q2;
        double d_im = sign * (q1 * p2 - p1 * q2);
        r = c + h * x;
        hankel_pq(&hk_nu, p * r, &p1, &q1);
        hankel_pq(&hk_mu, pp * r, &p2, &q2);
        double e_s_re = p1 * p2 - q1 * q2;
        double e_s_im = p1 * q2 + q1 * p2;
        double e_d_re = p1 * p2 + q1 * q2;
        double e_d_im = sign * (q1 * p2 - p1 * q2);
        double o_s_re = e_s_re - s_re;
        double o_s_im = e_s_im - s_im;
        double o_d_re = e_d_re - d_re;
        double o_d_im = e_d_im - d_im;
        e_s_re += s_re;
        e_s_im += s_im;
        e_d_re += d_re;
        e_d_im += d_im;
        double leg_prev = 1.0, leg = x;
        double ge_s = a_s[0], go_s = a_s[1] * x, ge_d = a_d[0], go_d = a_d[1] * x;
        double cge_s = 0.0, cgo_s = 0.0, cge_d = 0.0, cgo_d = 0.0;
        for (int k = 1; k < 15; k++) {
            double next = ((2 * k + 1) * x * leg - k * leg_prev) / (k + 1);
            leg_prev = leg;
            leg = next;
            if (k == 11) {
                cge_s = ge_s;
                cgo_s = go_s;
                cge_d = ge_d;
                cgo_d = go_d;
                ge_s = go_s = ge_d = go_d = 0.0;
            }
            if (k & 1) {
                ge_s += a_s[k + 1] * leg;
                ge_d += a_d[k + 1] * leg;
            } else {
                go_s += a_s[k + 1] * leg;
                go_d += a_d[k + 1] * leg;
            }
        }
        cs_re += w * (e_s_re * cge_s - o_s_im * cgo_s);
        cs_im += w * (e_s_im * cge_s + o_s_re * cgo_s);
        cd_re += w * (e_d_re * cge_d - o_d_im * cgo_d);
        cd_im += w * (e_d_im * cge_d + o_d_re * cgo_d);
        ts_re += w * (e_s_re * ge_s - o_s_im * go_s);
        ts_im += w * (e_s_im * ge_s + o_s_re * go_s);
        td_re += w * (e_d_re * ge_d - o_d_im * go_d);
        td_im += w * (e_d_im * ge_d + o_d_re * go_d);
    }
    double phase_s = off_nu + off_mu;
    double phase_d = sign * (off_nu - off_mu);
    double cos_s, sin_s, cos_d, sin_d;
    cos_sin_minus(w_sum * c, cos(phase_s), sin(phase_s), &cos_s, &sin_s);
    cos_sin_minus(w_dif * c, cos(phase_d), sin(phase_d), &cos_d, &sin_d);
    double scale = h / (PI * (sqrt(p) * sqrt(pp)));
    double coarse = scale * ((cos_s * cs_re - sin_s * cs_im) + (cos_d * cd_re - sin_d * cd_im));
    double tail = scale * ((cos_s * ts_re - sin_s * ts_im) + (cos_d * td_re - sin_d * td_im));
    return Py_BuildValue("(dd)", coarse + tail, coarse);
}

static PyMethodDef methods[] = {
    {"bessel_j", (PyCFunction)(void (*)(void))py_bessel_j, METH_FASTCALL,
     "bessel_j(nu, x, /)\n--\n\nJ_nu(x) for real order and x >= 0 (x = 0 only with nu >= 0).\n\n"
     "For a non-empty tuple x, the tuple of J_nu at each of its elements,\n"
     "from one expansion for all of them."},
    {"gauss15_product_panel", (PyCFunction)(void (*)(void))py_gauss15_product_panel,
     METH_FASTCALL,
     "gauss15_product_panel(nu, mu, p, pp, lo, hi, /)\n--\n\n"
     "15-point Gauss estimate of int_lo^hi J_nu(p r) J_mu(pp r) r dr."},
    {"kronrod21_product_panel", (PyCFunction)(void (*)(void))py_kronrod21_product_panel,
     METH_FASTCALL,
     "kronrod21_product_panel(nu, mu, p, pp, lo, hi, /)\n--\n\n"
     "(Kronrod 21, Gauss 10) estimates of int_lo^hi J_nu(p r) J_mu(pp r) r dr."},
    {"hankel_product_panel", (PyCFunction)(void (*)(void))py_hankel_product_panel,
     METH_FASTCALL,
     "hankel_product_panel(nu, mu, p, pp, lo, hi, /)\n--\n\n"
     "(value, coarse) Filon-Legendre estimates of int_lo^hi J_nu(p r) J_mu(pp r) r dr, "
     "p lo, pp lo > 12."},
    {NULL, NULL, 0, NULL},
};

/* Takes math.gamma, once, and exports it as the module's gamma. */
static int exec_module(PyObject *module)
{
    if (math_gamma == NULL) {
        PyObject *math = PyImport_ImportModule("math");
        math_gamma = math == NULL ? NULL : PyObject_GetAttrString(math, "gamma");
        Py_XDECREF(math);
    }
    return PyModule_AddObjectRef(module, "gamma", math_gamma);
}

static PyModuleDef_Slot slots[] = {{Py_mod_exec, exec_module}, {0, NULL}};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "abmodes._kernels_c",
    .m_doc = "Compiled numerical kernels: the C twin of abmodes._kernels_py.",
    .m_size = 0,
    .m_methods = methods,
    .m_slots = slots,
};

PyMODINIT_FUNC PyInit__kernels_c(void)
{
    return PyModuleDef_Init(&module);
}
