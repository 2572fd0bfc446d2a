/* Compiled numerical kernels: the C twin of `abmodes._kernels_py`.
 *
 * Bessel J, and the G15 and G10/K21 panels of J_nu(p r) J_mu(pp r) r; the
 * Python twin's docstring describes the algorithms.  Gamma is math.gamma in
 * both; the windowed engine's Hankel panel is the Python twin's alone.
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

/* J_nu(x) is summed from the ascending series for x <= HANKEL_FROM and from
 * Hankel's expansion above: the Python twin's _HANKEL_FROM. */
#define HANKEL_FROM 12.0

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
